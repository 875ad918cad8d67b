"""Propagation: integrators, pictures, and cross-basis consistency."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotpolariton as rp
from rotpolariton.dynamics import propagate, propagate_batch, unit_state
from conftest import B, G, unit_params


def _dressed_setup(params):
    h0, v, bas = rp.build_dressed_hamiltonian(params)
    s0 = unit_state(bas.labels, "0;0", basis="dressed")
    return h0, v, bas, s0


# ------------------------------------------------------------ state types

def test_state_vector_basics():
    s = rp.StateVector(np.array([0.6, 0.8j]), basis="dressed", labels=("a", "b"))
    assert s.dim == 2
    assert s.norm() == pytest.approx(1.0)
    assert s.population(1) == pytest.approx(0.64)
    t = rp.StateVector(np.array([1.0, 0.0]), basis="dressed")
    assert t.overlap(s) == pytest.approx(0.6)
    with pytest.raises(rp.BasisMismatch):
        t.overlap(rp.StateVector(np.array([1.0, 0.0]), basis="product"))
    with pytest.raises(ValueError):
        rp.StateVector(np.array([1.0]), basis="x", picture="nonsense")
    # amplitudes are frozen
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_unit_state_and_label_expansion():
    labels = ("0;0", "+;0", "-;0")
    s = unit_state(labels, "-;0", basis="dressed")
    assert s.amplitudes[2] == 1.0 and s.norm() == 1.0
    big = rp.expand_to_labels(s, ("0;0", "+;0", "-;0", "+;1", "-;1"))
    assert big.dim == 5
    assert big.amplitudes[2] == 1.0
    assert big.labels[3] == "+;1"


def test_trajectory_accessors():
    ts = np.array([0.0, 1.0, 2.0])
    st = np.eye(3, dtype=complex)
    traj = rp.Trajectory(times=ts, states=st, basis="dressed", labels=("a", "b", "c"))
    assert traj.dim == 3 and len(traj) == 3
    assert traj.state_at(1).time == 1.0
    assert np.allclose(traj.norms(), 1.0)
    with pytest.raises(ValueError):
        rp.Trajectory(times=ts, states=st[:2], basis="dressed")


# --------------------------------------------------------------- pictures

def test_free_evolution_phases():
    en = np.array([0.0, 1.8, 2.2])
    s0 = rp.StateVector(np.array([0.6, 0.48, 0.64]), basis="dressed", time=0.0)
    s1 = rp.free_evolve(s0, 2.5, en)
    assert s1.time == 2.5
    want = s0.amplitudes * np.exp(-1j * en * 2.5)
    assert np.max(np.abs(s1.amplitudes - want)) < 1e-14


def test_interaction_picture_round_trip():
    en = np.array([0.0, 1.8, 2.2])
    rng = np.random.default_rng(7)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    s = rp.StateVector(a, basis="dressed", time=1.3)
    inter = rp.to_interaction(s, en)
    assert inter.picture == "interaction"
    back = rp.to_schrodinger(inter, en)
    assert np.max(np.abs(back.amplitudes - a)) < 1e-14
    # interaction-picture amplitudes are constants of free motion
    s2 = rp.free_evolve(s, 4.0, en)
    i2 = rp.to_interaction(s2, en)
    assert np.max(np.abs(i2.amplitudes - inter.amplitudes)) < 1e-13


# ------------------------------------------------------------- propagation

def test_zero_field_reduces_to_free_evolution():
    p = unit_params()
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.GaussianPulse(e0=0.0, tau0=2.0, omega0=2.0, phi0=0.0,
                           t_start=-14.0, t_end=14.0)
    rng = np.random.default_rng(3)
    a = rng.normal(size=bas.dim) + 1j * rng.normal(size=bas.dim)
    a /= np.linalg.norm(a)
    start = rp.StateVector(a, basis="dressed", time=-14.0)
    traj = propagate(h0, v, fld, start, np.linspace(-14.0, 14.0, 9))
    for i, t in enumerate(traj.times):
        want = a * np.exp(-1j * bas.energies * (t + 14.0))
        assert np.max(np.abs(traj.states[i] - want)) < 5e-12


def test_eigenstate_is_stationary_under_weak_drive():
    # far-off-resonant weak drive: populations stay put to high order
    p = unit_params()
    h0, v, bas, _ = _dressed_setup(p)
    s0 = unit_state(bas.labels, "edge", basis="dressed", time=-21.0)
    fld = rp.GaussianPulse(e0=1e-8, tau0=3.0, omega0=0.37, phi0=0.0,
                           t_start=-21.0, t_end=21.0)
    traj = propagate(h0, v, fld, s0, np.array([-21.0, 21.0]))
    pops = np.abs(traj.states[-1]) ** 2
    assert pops[bas.index("edge")] == pytest.approx(1.0, abs=1e-9)


def test_norm_is_conserved_through_a_strong_kick():
    p = unit_params()
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.5, tau0=1.0 / G, omega0=p.omega01)
    s0 = unit_state(bas.labels, "0;0", basis="dressed", time=fld.t_start)
    traj = propagate(h0, v, fld, s0, np.linspace(fld.t_start, fld.t_end, 17))
    assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10
    assert traj.meta["step_error"] < 1e-8


def test_propagator_is_linear():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, _ = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 0.9, tau0=1.0 / G, omega0=p.omega01)
    outs = []
    # certified runs can land on different step sizes per initial state, so
    # hold each one well below the comparison tolerance
    for which in bas.labels[:3]:
        s0 = unit_state(bas.labels, which, basis="dressed", time=fld.t_start)
        traj = propagate(h0, v, fld, s0, np.array([fld.t_start, fld.t_end]),
                         tol=1e-11)
        outs.append(traj.states[-1])
    coef = np.array([0.5, 0.5j, -np.sqrt(0.5)])
    mix = np.zeros(bas.dim, dtype=complex)
    for c, which in zip(coef, bas.labels[:3]):
        mix += c * unit_state(bas.labels, which, basis="dressed").amplitudes
    smix = rp.StateVector(mix, basis="dressed", time=fld.t_start)
    tmix = propagate(h0, v, fld, smix, np.array([fld.t_start, fld.t_end]),
                     tol=1e-11)
    want = sum(c * o for c, o in zip(coef, outs))
    assert np.max(np.abs(tmix.states[-1] - want)) < 1e-9


def test_integrator_methods_cross_check():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, _ = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.2, tau0=1.5, omega0=p.omega01)
    finals = {}
    # the fourth-order default is held tighter than the second-order methods
    for method, tol in (("yoshida4", 1e-9), ("strang", 1e-7), ("midpoint", 1e-7)):
        s0 = unit_state(bas.labels, "0;0", basis="dressed", time=fld.t_start)
        traj = propagate(h0, v, fld, s0, np.array([fld.t_start, fld.t_end]),
                         method=method, tol=tol, max_halvings=10)
        finals[method] = traj.states[-1]
    for method in ("strang", "midpoint"):
        assert np.max(np.abs(finals[method] - finals["yoshida4"])) < 1e-6


def test_not_converged_when_step_control_is_frozen():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, _ = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.0, tau0=2.0, omega0=p.omega01)
    s0 = unit_state(bas.labels, "0;0", basis="dressed", time=fld.t_start)
    with pytest.raises(rp.NotConverged):
        propagate(h0, v, fld, s0, np.array([fld.t_start, fld.t_end]),
                  dt=0.5, tol=1e-13, max_halvings=0)


def test_sampled_field_reproduces_analytic_gaussian():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, _ = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 0.8, tau0=2.0, omega0=p.omega01)
    ts = np.linspace(fld.t_start, fld.t_end, 20001)
    tab = rp.SampledField(times=ts, values=np.array([rp.field_value(fld, t) for t in ts]))
    out = {}
    for f in (fld, tab):
        s0 = unit_state(bas.labels, "0;0", basis="dressed", time=fld.t_start)
        out[type(f).__name__] = propagate(h0, v, f, s0,
                                          np.array([fld.t_start, fld.t_end])).states[-1]
    # linear interpolation error ~ (dt_sample)^2 of the carrier
    assert np.max(np.abs(out["SampledField"] - out["GaussianPulse"])) < 1e-5


# ------------------------------------------------------ the batched kernel
#
# Every row of a batch shares the Hamiltonian and the field window [-10, 10]
# and feels its own Gaussian field.

_WINDOW = (-10.0, 10.0)
_P_BATCH = unit_params(j_max=3, n_max=2)


def _batch_field(e0, omega0, phi0):
    return rp.GaussianPulse(e0=e0, tau0=1.5, omega0=omega0, phi0=phi0,
                            t_start=_WINDOW[0], t_end=_WINDOW[1])


_fields = st.builds(_batch_field, e0=st.floats(0.0, 0.3), omega0=st.floats(1.0, 3.0),
                    phi0=st.floats(0.0, 2.0 * np.pi))


def _random_state(seed, labels, time=_WINDOW[0]):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    return rp.StateVector(a / np.linalg.norm(a), basis="dressed", time=time,
                          labels=labels)


@settings(max_examples=8, deadline=None)
@given(fields=st.lists(_fields, min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_every_batch_row_keeps_its_norm(fields, seed):
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    states = [_random_state(seed + r, bas.labels) for r in range(len(fields))]
    times = np.linspace(*_WINDOW, 5)
    for traj in propagate_batch(h0, v, fields, states, times):
        assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10
        assert traj.meta["step_error"] <= 1e-8


@settings(max_examples=8, deadline=None)
@given(fields=st.lists(_fields, min_size=2, max_size=5), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_row_equals_its_solo_run(fields, seed):
    # a loose tol stops every row after one halving, so all runs share dt
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    states = [_random_state(seed + r, bas.labels) for r in range(len(fields))]
    times = np.linspace(*_WINDOW, 3)
    kw = dict(dt=0.05, tol=1.0)
    batch = propagate_batch(h0, v, fields, states, times, **kw)
    for fld, s0, traj in zip(fields, states, batch):
        solo = propagate(h0, v, fld, s0, times, **kw)
        assert traj.meta["dt"] == solo.meta["dt"] and traj.meta["halvings"] == 1
        assert traj.meta["step_error"] == pytest.approx(solo.meta["step_error"], abs=1e-12)
        assert np.max(np.abs(traj.states - solo.states)) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(fld=_fields, coef=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3,
                                  max_size=3))
def test_propagation_is_linear_in_the_initial_state(fld, coef):
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    basis = [unit_state(bas.labels, i, basis="dressed", time=_WINDOW[0]) for i in range(3)]
    mix = rp.StateVector(sum(c * s.amplitudes for c, s in zip(coef, basis)),
                         basis="dressed", time=_WINDOW[0], labels=bas.labels)
    times = np.linspace(*_WINDOW, 3)
    *rows, out = propagate_batch(h0, v, [fld] * 4, basis + [mix], times, dt=0.05, tol=1.0)
    want = sum(c * r.states for c, r in zip(coef, rows))
    assert np.max(np.abs(out.states - want)) <= 1e-12 * max(1.0, sum(map(abs, coef)))


def test_rows_leave_the_ladder_one_by_one():
    # a field-free row certifies at the first halving; a strong coarse-step
    # row cannot, and only that row reports NotConverged
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    s0 = unit_state(bas.labels, "0;0", basis="dressed", time=_WINDOW[0])
    quiet, loud = _batch_field(0.0, 2.0, 0.0), _batch_field(0.3, 2.0, 0.0)
    calm, stalled = propagate_batch(h0, v, [quiet, loud], [s0, s0], np.array(_WINDOW),
                                    dt=0.5, tol=1e-11, max_halvings=1)
    assert calm.meta["halvings"] == 1 and calm.meta["step_error"] <= 1e-11
    assert isinstance(stalled, rp.NotConverged)


def test_batch_rejects_fields_with_different_windows():
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    s0 = unit_state(bas.labels, "0;0", basis="dressed", time=_WINDOW[0])
    other = rp.GaussianPulse(e0=0.1, tau0=1.5, omega0=2.0, phi0=0.0,
                             t_start=_WINDOW[0], t_end=12.0)
    with pytest.raises(ValueError, match="window"):
        propagate_batch(h0, v, [_batch_field(0.1, 2.0, 0.0), other], [s0, s0],
                        np.array(_WINDOW))


def _counting_kernel(monkeypatch):
    """Record n[i] at every interval the split-step kernel runs, one list per level."""
    from rotpolariton import dynamics

    levels = []
    inner = dynamics._split_steps

    def counting(frame, fields, lo, n, h, weights):
        advance = inner(frame, fields, lo, n, h, weights)
        taken = []
        levels.append(taken)

        def counted(y, i, pre, post):
            taken.append(int(n[i]))
            return advance(y, i, pre, post)

        return counted

    monkeypatch.setattr(dynamics, "_split_steps", counting)
    return levels


def _ladder(times, window, meta):
    """Steps per halving level implied by the meta: max(1, ceil(span / dt_k))."""
    spans = [min(b, window[1]) - max(a, window[0]) for a, b in zip(times[:-1], times[1:])]
    dt0 = meta["dt"] * 2 ** meta["halvings"]
    return [sum(max(1, math.ceil(s / (dt0 / 2 ** k))) for s in spans if s > 0)
            for k in range(meta["halvings"] + 1)]


def test_kernel_steps_match_the_ladder_in_the_trajectory_meta(monkeypatch):
    # the sample grid overhangs the field window at both ends, so the first
    # and last intervals are only partly in the field
    levels = _counting_kernel(monkeypatch)
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    fld = _batch_field(0.3, 2.0, 0.0)
    s0 = unit_state(bas.labels, "0;0", basis="dressed", time=-12.0)
    times = np.linspace(-12.0, 12.0, 9)
    traj = propagate(h0, v, fld, s0, times)
    assert traj.meta["halvings"] >= 2
    assert [sum(taken) for taken in levels] == _ladder(times, _WINDOW, traj.meta)
    assert all(len(taken) == len(times) - 1 for taken in levels)


def test_batch_rows_run_the_ladder_their_meta_implies(monkeypatch):
    # every level runs all rows still on the ladder; the last row to leave
    # accounts for every level, the others for a prefix of it
    levels = _counting_kernel(monkeypatch)
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    s0 = unit_state(bas.labels, "0;0", basis="dressed", time=_WINDOW[0])
    fields = [_batch_field(e0, 2.0, 0.0) for e0 in (0.02, 0.3)]
    times = np.linspace(*_WINDOW, 5)
    trajs = propagate_batch(h0, v, fields, [s0, s0], times)
    steps = [sum(taken) for taken in levels]
    ladders = [_ladder(times, _WINDOW, t.meta) for t in trajs]
    assert ladders[0] != ladders[1]
    assert steps == max(ladders, key=len)
    assert all(steps[:len(lad)] == lad for lad in ladders)


def test_large_basis_yoshida_matches_the_exact_midpoint():
    # dim 40: the size that used to take a separate per-step code path
    p = unit_params(j_max=1, n_max=19)
    h0, v, bas = rp.build_dressed_hamiltonian(p)
    assert bas.dim >= 40
    fld = rp.gaussian_for_area(p, 1.2, tau0=1.0 / (4.0 * G), omega0=p.omega01)
    # the strongest stretch of the pulse keeps the exponential reference cheap
    s0 = _random_state(7, bas.labels, time=-1.0)
    times = np.array([-1.0, 0.0, 1.0])
    y4 = propagate(h0, v, fld, s0, times, tol=1e-10)
    mid = propagate(h0, v, fld, s0, times, method="midpoint", dt=0.004, tol=1.0,
                    max_halvings=1)
    assert np.max(np.abs(y4.states - mid.states)) < 1e-6


# ----------------------------------------------- cross-basis consistency

@functools.lru_cache(maxsize=None)
def _population_mismatch(ratio, j_max, n_max, bw_ratio):
    """Dressed-frame vs product-frame kick populations.

    The product-frame run starts from the exact coupled ground state and is
    read out by projecting on the exact static eigenvectors, so the static
    counter-rotating dressing of the initial and final states drops out and
    the number below isolates the dynamical difference.
    """
    g = ratio * 2.0 * B
    p = rp.SystemParams(rot_const=B, dipole=1.0, cavity_freq=2.0 * B, coupling=g,
                        j_max=j_max, n_max=n_max)
    fld = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / (bw_ratio * g),
                               omega0=p.omega01)
    h0d, vd, bas = rp.build_dressed_hamiltonian(p)
    s0d = unit_state(bas.labels, "0;0", basis="dressed", time=fld.t_start)
    td = propagate(h0d, vd, fld, s0d, np.array([fld.t_start, fld.t_end]), tol=1e-9)
    pd = np.abs(td.states[-1]) ** 2

    h0f, vf = rp.build_full_hamiltonian(p)
    vecs, _evals, _ = rp.adiabatic_dressed_vectors(p)
    s0f = rp.StateVector(vecs[:, 0], basis="product", time=fld.t_start)
    tf = propagate(h0f, vf, fld, s0f, np.array([fld.t_start, fld.t_end]), tol=1e-9)
    pf = np.abs(vecs.conj().T @ tf.states[-1]) ** 2
    return float(np.max(np.abs(pd - pf)))


def test_dressed_and_product_frames_agree():
    # at g = 0.1 omega01 the counter-rotating corrections enter the kick
    # populations at a few 1e-4; the frames must agree to 1e-3
    assert _population_mismatch(0.1, j_max=4, n_max=3, bw_ratio=0.5) < 1e-3


def test_frame_mismatch_shrinks_with_the_coupling():
    d_small = _population_mismatch(0.01, j_max=2, n_max=2, bw_ratio=0.5)
    assert d_small < 1e-4
    # the residual is dominated by the counter-rotating frequency shift,
    # which scales linearly in g (see the failing target below)
    assert d_small > 1e-6


@pytest.mark.xfail(strict=True, reason=(
    "counter-rotating terms shift the doublet transition frequencies at "
    "relative order g/omega01, which feeds the kick populations at first "
    "order in g; the frame mismatch floors near 2e-5 at g = 0.01 omega01 "
    "and reaching 1e-6 would need g ~ 5e-4 omega01"))
def test_frame_agreement_at_inaccessible_tolerance():
    assert _population_mismatch(0.01, j_max=2, n_max=2, bw_ratio=0.5) < 1e-6


def test_truncation_is_converged():
    # enlarging either ladder must not move a broadband kick's populations
    p8 = unit_params(cavity_freq=0.0, coupling=0.0, n_max=0)
    p10 = unit_params(cavity_freq=0.0, coupling=0.0, n_max=0, j_max=10)
    fld = rp.gaussian_for_area(p8, rp.KICK_AREA, tau0=1.0 / G, omega0=p8.omega01)
    pops = {}
    for p in (p8, p10):
        h0, v = rp.build_full_hamiltonian(p)
        s0 = unit_state([f"J{j}" for j in range(p.j_max + 1)], 0,
                        basis="product", time=fld.t_start)
        traj = propagate(h0, v, fld, s0, np.array([fld.t_start, fld.t_end]))
        pops[p.j_max] = np.abs(traj.states[-1]) ** 2
    assert np.max(np.abs(pops[8] - pops[10][:9])) < 1e-6
    assert np.sum(pops[10][9:]) < 1e-6

    d = {}
    for n_max in (4, 6):
        p = unit_params(n_max=n_max)
        h0, v, bas = rp.build_dressed_hamiltonian(p)
        fldc = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / (0.5 * G),
                                    omega0=p.omega01)
        s0 = unit_state(bas.labels, "0;0", basis="dressed", time=fldc.t_start)
        traj = propagate(h0, v, fldc, s0, np.array([fldc.t_start, fldc.t_end]))
        d[n_max] = {lab: float(abs(a) ** 2)
                    for lab, a in zip(bas.labels, traj.states[-1])}
    common = [lab for lab in d[4] if lab != "edge"]
    assert max(abs(d[4][lab] - d[6][lab]) for lab in common) < 1e-6


# ------------------------------------------------------- analytic pulse map

def test_magnus_wavefunction_quarter_area():
    # theta0 = pi/4 with balanced lines puts (1/2, 1/4, 1/4) on the triplet
    A = np.pi / 4.0 / np.sqrt(2.0)
    dbl = {(s, l): 0.0 for s in (1, -1) for l in (1, -1)}
    areas = rp.aggregate_areas(A * np.exp(0.3j), A * np.exp(-1.1j), dbl)
    state = rp.magnus_wavefunction(areas)
    pops = np.abs(state.amplitudes) ** 2
    assert pops[0] == pytest.approx(0.5, abs=1e-12)
    assert pops[1] == pytest.approx(0.25, abs=1e-12)
    assert pops[2] == pytest.approx(0.25, abs=1e-12)
    assert pops[3] == pytest.approx(0.0, abs=1e-12)
    # first-order map conjugates the drive phase into the amplitudes
    assert np.angle(state.amplitudes[1]) == pytest.approx(np.pi / 2.0 - 0.3, abs=1e-12)
    assert np.angle(state.amplitudes[2]) == pytest.approx(np.pi / 2.0 + 1.1, abs=1e-12)
    assert state.picture == "interaction"


def test_magnus_wavefunction_zero_field_is_identity():
    dbl = {(s, l): 0.0 for s in (1, -1) for l in (1, -1)}
    areas = rp.aggregate_areas(0.0, 0.0, dbl)
    state = rp.magnus_wavefunction(areas)
    assert abs(state.amplitudes[0]) == pytest.approx(1.0)
    assert np.max(np.abs(state.amplitudes[1:])) == 0.0
