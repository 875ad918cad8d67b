"""Propagation: the trajectory, the kernel against an independent ODE solver,
the batched kernel, frame consistency between the dressed and the product
basis, and the first-order pulse map."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rotpolariton as rp
from rotpolariton.dynamics import propagate, propagate_batch
from conftest import (
    B,
    G,
    adiabatic_dressed_vectors,
    build_full_hamiltonian,
    dressed_operators,
    schrodinger_dop853,
    unit_params,
)


def _unit(labels, which):
    """The basis state picked by label (str) or index (int), as complex amplitudes."""
    a = np.zeros(len(labels), dtype=complex)
    a[labels.index(which) if isinstance(which, str) else which] = 1.0
    return a


def _dressed_setup(params):
    h0, v, bas = dressed_operators(params)
    return h0, v, bas, _unit(bas.labels, "0;0")


# -------------------------------------------------------------- trajectory

def test_trajectory_accessors():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 0.5, tau0=2.0, omega0=p.omega01)
    ts = np.linspace(fld.t_start, fld.t_end, 3)
    traj = propagate(h0, v, fld, s0, ts)
    assert isinstance(traj, rp.Trajectory)
    assert np.array_equal(traj.times, ts)
    assert traj.states.shape == (3, len(bas.labels)) and traj.states.dtype == complex
    assert np.max(np.abs(traj.states[0] - s0)) < 1e-14
    assert set(traj.meta) == {"dt", "halvings", "steps", "step_error"}


# ------------------------------------------------------------- propagation

def test_zero_field_reduces_to_free_evolution():
    p = unit_params()
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.CompositePulse(e0=0.0, tau0=2.0, components=((2.0, 0.0),),
                            t_start=-14.0, t_end=14.0)
    rng = np.random.default_rng(3)
    a = rng.normal(size=len(bas.labels)) + 1j * rng.normal(size=len(bas.labels))
    a /= np.linalg.norm(a)
    traj = propagate(h0, v, fld, a, np.linspace(-14.0, 14.0, 9))
    for i, t in enumerate(traj.times):
        want = a * np.exp(-1j * bas.energies * (t + 14.0))
        assert np.max(np.abs(traj.states[i] - want)) < 5e-12


def test_a_coupling_far_below_the_level_energies_is_kept():
    # two degenerate levels at a rotor energy E, coupled by eps = 1e-9 E: the
    # drift is diagonalised however small its couplings, so over T the
    # second level fills as sin(eps T); eigenvalue roundoff leaves about 5e-14
    E, eps, T = 9.2e-7, 1e-15, 7e8
    h0 = np.array([[E, eps], [eps, E]])
    fld = rp.CompositePulse(e0=0.0, tau0=T / 14.0, components=((E, 0.0),),
                            t_start=-T / 2.0, t_end=T / 2.0)
    traj = propagate(h0, np.diag([1.0, -1.0]), fld, np.array([1.0, 0.0]),
                     np.array([-T / 2.0, T / 2.0]))
    assert abs(abs(traj.states[-1, 1]) - np.sin(eps * T)) <= 1e-12


def test_eigenstate_is_stationary_under_weak_drive():
    # far-off-resonant weak drive: populations stay put to high order
    p = unit_params()
    h0, v, bas, _ = _dressed_setup(p)
    s0 = _unit(bas.labels, "edge")
    fld = rp.CompositePulse(e0=1e-8, tau0=3.0, components=((0.37, 0.0),),
                            t_start=-21.0, t_end=21.0)
    traj = propagate(h0, v, fld, s0, np.array([-21.0, 21.0]))
    pops = np.abs(traj.states[-1]) ** 2
    assert pops[bas.labels.index("edge")] == pytest.approx(1.0, abs=1e-9)


def test_norm_is_conserved_through_a_strong_kick():
    p = unit_params()
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.5, tau0=1.0 / G, omega0=p.omega01)
    traj = propagate(h0, v, fld, s0, np.linspace(fld.t_start, fld.t_end, 17))
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-10
    assert traj.meta["step_error"] < 1e-8


def test_propagator_is_linear():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, _ = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 0.9, tau0=1.0 / G, omega0=p.omega01)
    outs = []
    # certified runs can land on different step sizes per initial state, so
    # hold each one well below the comparison tolerance
    for which in bas.labels[:3]:
        traj = propagate(h0, v, fld, _unit(bas.labels, which),
                         np.array([fld.t_start, fld.t_end]), tol=1e-11)
        outs.append(traj.states[-1])
    coef = np.array([0.5, 0.5j, -np.sqrt(0.5)])
    mix = sum(c * _unit(bas.labels, which) for c, which in zip(coef, bas.labels[:3]))
    tmix = propagate(h0, v, fld, mix, np.array([fld.t_start, fld.t_end]),
                     tol=1e-11)
    want = sum(c * o for c, o in zip(coef, outs))
    assert np.max(np.abs(tmix.states[-1] - want)) < 1e-9


# (params, basis, dim) of the runs checked against DOP853: the dressed basis
# at two sizes, and a coupled product basis, whose h0 is not diagonal, so
# diagonalizing it, as the kernel's frame does every h0, changes the basis
# before the eigenbasis of v is taken
_DOP853_RUNS = {
    "dressed6": (unit_params(j_max=2, n_max=2), "dressed", 6),
    "dressed40": (unit_params(j_max=1, n_max=19), "dressed", 40),
    "product12": (unit_params(j_max=3, n_max=2), "product", 12),
}


@pytest.mark.parametrize("name", list(_DOP853_RUNS))
def test_kernel_matches_dop853(name):
    p, basis, dim = _DOP853_RUNS[name]
    if basis == "dressed":
        h0, v, bas = dressed_operators(p)
        labels = bas.labels
    else:
        h0, v = build_full_hamiltonian(p)
        labels = tuple(range(len(h0)))
    assert len(labels) == dim
    fld = rp.gaussian_for_area(p, 1.2, tau0=1.0 / (4.0 * G), omega0=p.omega01)
    # the middle four envelope widths, where 95% of the area is
    times = np.linspace(-2.0 * fld.tau0, 2.0 * fld.tau0, 5)
    s0 = _random_state(7, labels)
    traj = propagate(h0, v, fld, s0, times, tol=1e-10)
    ref = schrodinger_dop853(h0, v, fld, s0, times)
    assert np.max(np.abs(traj.states - ref)) < 1e-8


def test_not_converged_when_step_control_is_frozen():
    # roundoff freezes step control: a tol below the run's norm drift, a
    # lower bound on its error, stops it at once and names the drift
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.0, tau0=2.0, omega0=p.omega01)
    with pytest.raises(rp.NotConverged, match=r"norm drift .* after \d+ steps"):
        propagate(h0, v, fld, s0, np.array([fld.t_start, fld.t_end]), tol=1e-17)


def test_step_control_stalls_once_its_runs_are_spent(monkeypatch):
    # this kick certifies at tol 1e-8 two runs past the pilot, its norm
    # drift far below tol; allowed one, step control stalls
    monkeypatch.setattr(rp.dynamics, "_MAX_HALVINGS", 1)
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.0, tau0=2.0, omega0=p.omega01)
    with pytest.raises(rp.NotConverged, match=r"stalled .* after 1 runs past the first"):
        propagate(h0, v, fld, s0, np.array([fld.t_start, fld.t_end]), tol=1e-8)


def test_times_outside_the_field_window_are_rejected():
    p = unit_params(j_max=2, n_max=1)
    h0, v, bas, s0 = _dressed_setup(p)
    fld = rp.gaussian_for_area(p, 1.0, tau0=2.0, omega0=p.omega01)
    for times in ([fld.t_start, fld.t_end + 1.0], [fld.t_start, fld.t_end, fld.t_end + 1.0]):
        with pytest.raises(ValueError, match="field window"):
            propagate(h0, v, fld, s0, np.array(times))
    # a state that starts before the field
    with pytest.raises(ValueError, match="field window"):
        propagate(h0, v, fld, s0, np.array([fld.t_start - 1.0, fld.t_end]))


# ------------------------------------------------------ the batched kernel
#
# Every row of a batch shares the Hamiltonian and the field window [-10, 10]
# and feels its own Gaussian field.

_WINDOW = (-10.0, 10.0)
_P_BATCH = unit_params(j_max=3, n_max=2)


def _batch_field(e0, omega0, phi0):
    return rp.CompositePulse(e0=e0, tau0=1.5, components=((omega0, phi0),),
                             t_start=_WINDOW[0], t_end=_WINDOW[1])


_fields = st.builds(_batch_field, e0=st.floats(0.0, 0.3), omega0=st.floats(1.0, 3.0),
                    phi0=st.floats(0.0, 2.0 * np.pi))


def _random_state(seed, labels):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    return a / np.linalg.norm(a)


def _frame(h0, v):
    """The kernel's frame of h0 and v, built from complex copies as propagate_batch does."""
    from rotpolariton import dynamics

    return dynamics._SplitFrame(np.asarray(h0, dtype=complex), np.asarray(v, dtype=complex))


def _fixed_steps(h0, v, fields, states, times, steps):
    """States of one kernel run of `steps` steps per sample interval, shape (times, rows, dim).

    The certified runs of propagate_batch are such runs, at step counts
    their step control picks.
    """
    from rotpolariton import dynamics

    frame = _frame(h0, v)
    y0 = np.array(states, dtype=complex) @ frame.u.conj()
    out = dynamics._run_sampled(frame, fields, y0, times, np.full(times.size - 1, steps))
    # row by row, as propagate_batch returns them
    return np.stack([out[:, r] @ frame.u.T for r in range(len(states))], axis=1)


@settings(max_examples=8, deadline=None)
@given(fields=st.lists(_fields, min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_every_batch_row_keeps_its_norm(fields, seed):
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    states = [_random_state(seed + r, bas.labels) for r in range(len(fields))]
    times = np.linspace(*_WINDOW, 5)
    for traj in propagate_batch(h0, v, fields, states, times):
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-10
        assert traj.meta["step_error"] <= 1e-8


@settings(max_examples=8, deadline=None)
@given(fields=st.lists(_fields, min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1),
       tol=st.sampled_from([1e-8, 1e-10, 1e-11, 1e-12]))
def test_step_error_is_at_least_the_norm_drift(fields, seed, tol):
    # the exact evolution is unitary, so the drift of the norm is a lower
    # bound on the error: every certified row reports at least its drift,
    # and a row that fails at these tols fails on its drift
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    states = [_random_state(seed + r, bas.labels) for r in range(len(fields))]
    times = np.linspace(*_WINDOW, 5)
    for row in propagate_batch(h0, v, fields, states, times, tol=tol):
        if isinstance(row, rp.NotConverged):
            assert "norm drift" in str(row)
            continue
        norms = np.linalg.norm(row.states, axis=1)
        assert np.max(np.abs(norms - norms[0])) <= row.meta["step_error"] <= tol


@settings(max_examples=8, deadline=None)
@given(fields=st.lists(_fields, min_size=2, max_size=5), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_row_equals_its_solo_run(fields, seed):
    # one run of the kernel at a fixed step count, all rows together or each alone
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    states = [_random_state(seed + r, bas.labels) for r in range(len(fields))]
    times = np.linspace(*_WINDOW, 3)
    batch = _fixed_steps(h0, v, fields, states, times, 200)
    for r, (fld, s0) in enumerate(zip(fields, states)):
        solo = _fixed_steps(h0, v, [fld], [s0], times, 200)
        assert np.max(np.abs(batch[:, r] - solo[:, 0])) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(fld=_fields, coef=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3,
                                  max_size=3))
def test_propagation_is_linear_in_the_initial_state(fld, coef):
    h0, v, bas, _ = _dressed_setup(_P_BATCH)
    basis = [_unit(bas.labels, i) for i in range(3)]
    mix = sum(c * s for c, s in zip(coef, basis))
    times = np.linspace(*_WINDOW, 3)
    states = _fixed_steps(h0, v, [fld] * 4, basis + [mix], times, 200)
    want = sum(c * states[:, r] for r, c in enumerate(coef))
    assert np.max(np.abs(states[:, 3] - want)) <= 1e-12 * max(1.0, sum(map(abs, coef)))


def test_rows_leave_the_ladder_one_by_one():
    # a field-free row certifies in the pilot pair (30 steps, norm drift
    # 6e-14); a strong row goes on to runs of about 1,100 steps, whose norm
    # drift (2e-12) exceeds tol, and only that row reports NotConverged
    h0, v, bas, s0 = _dressed_setup(_P_BATCH)
    quiet, loud = _batch_field(0.0, 2.0, 0.0), _batch_field(0.3, 2.0, 0.0)
    tol = 3e-13
    calm, stalled = propagate_batch(h0, v, [quiet, loud], [s0, s0], np.array(_WINDOW),
                                    tol=tol)
    assert calm.meta["halvings"] == 1 and calm.meta["step_error"] <= tol
    assert isinstance(stalled, rp.NotConverged) and "norm drift" in str(stalled)


def _kernel_operators(basis):
    """h0 and v of the dressed 10-state ladder, or of the bare rotor up to j = 8."""
    if basis == "dressed":
        h0, v, _, _ = _dressed_setup(unit_params())
        return h0, v
    return np.diag([B * j * (j + 1) for j in range(9)]), rp.cos_theta_elements(8)


@pytest.mark.parametrize("basis, levels", [("dressed", 1), ("bare", 5)])
def test_merged_eigenvalue_kicks_match_the_exponential(basis, levels):
    # a kick takes one exponential per distinct |eigenvalue| of v: +-mu01
    # dressed, and bare 0 and the four positive Gauss-Legendre nodes
    frame = _frame(*_kernel_operators(basis))
    assert frame.levels.size == levels
    arg = np.random.default_rng(levels).normal(size=(256, 3, 2))
    want = np.exp(1j * arg[..., None] * frame.w)
    assert np.max(np.abs(frame.kicks(arg) - want)) <= 1e-14


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("basis", ["dressed", "bare"])
def test_kernel_is_its_documented_product_bit_for_bit(basis, rows):
    # the kernel's in-place, overhead-trimmed loop must compute exactly
    # y = (y * kick) @ block per sub-step on the state rows' float view,
    # between the opening and closing half drifts, each block built for its
    # own interval; 1,201 steps cross a chunk of the kick schedule, and 64
    # intervals of 1-32 steps, each count twice and never side by side, share
    # 32 step lengths among them, looked up from blocks built in one batch
    from rotpolariton import dynamics
    from rotpolariton.pulse import field_value

    frame = _frame(*_kernel_operators(basis))
    fields = [_batch_field(0.1 * (r + 1), 1.5 + 0.25 * r, r) for r in range(rows)]
    y0 = np.random.default_rng(rows).normal(size=(rows, frame.w.size)) + 0j
    c = np.asarray(dynamics._WEIGHTS)
    fuse, mid = 0.5 * (c + np.roll(c, -1)), np.cumsum(c) - 0.5 * c

    def drift(y, tau):
        return (y.view(float) @ frame.drift([tau])[0]).view(complex)

    many = 1 + (5 * np.arange(64)) % 32
    for times, n in ((np.array([_WINDOW[0], -1.0, 0.5, _WINDOW[1]]), np.array([400, 1, 800])),
                     (np.linspace(*_WINDOW, 65), many)):
        out = dynamics._run_sampled(frame, fields, y0, times, n)
        h = np.diff(times) / n
        assert np.unique(h).size == np.unique(n).size
        y, want = y0, [y0]
        for i in range(n.size):
            y = drift(y, 0.5 * c[0] * h[i])
            for k in range(n[i]):
                ts = (times[i] + h[i] * k) + h[i] * mid
                arg = np.stack([field_value(f, ts) for f in fields], axis=-1) * (h[i] * c)[:, None]
                for kick, tau in zip(frame.kicks(arg), fuse * h[i]):
                    y = drift(y * kick, tau)
            y = drift(y, -0.5 * c[0] * h[i])
            want.append(y)
        assert np.array_equal(out, np.array(want))


def _complex_drift(frame, tau):
    """The complex drift block D = (W^H exp(-i tau eps) W)^T: y evolves as y @ D."""
    return (frame.wv.T * np.exp(-1j * tau * frame.eps)) @ frame.wv.conj()


@pytest.mark.parametrize("basis", ["dressed", "bare"])
def test_real_drift_blocks_are_exact_copies_of_the_complex_block(basis):
    # the real form adds no rounding: its interleaved quarters are D's real
    # and imaginary parts, for either sign of tau
    frame = _frame(*_kernel_operators(basis))
    taus = np.array([0.37, -0.37, 2.5, -11.0, 0.0])
    for tau, block in zip(taus, frame.drift(taus)):
        d = _complex_drift(frame, tau)
        assert block.shape == (2 * d.shape[0], 2 * d.shape[1])
        for (r, s), want in (((0, 0), d.real), ((0, 1), d.imag),
                             ((1, 0), -d.imag), ((1, 1), d.real)):
            assert np.array_equal(block[r::2, s::2], want)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 8), tau=st.floats(-20.0, 20.0), seed=st.integers(0, 2 ** 32 - 1),
       basis=st.sampled_from(["dressed", "bare"]))
def test_float_view_product_is_the_complex_product(rows, tau, seed, basis):
    frame = _frame(*_kernel_operators(basis))
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(rows, frame.w.size)) + 1j * rng.normal(size=(rows, frame.w.size))
    real = (y.view(float) @ frame.drift([tau])[0]).view(complex)
    assert np.max(np.abs(real - y @ _complex_drift(frame, tau))) <= 1e-15 * np.linalg.norm(y)


def test_peak_memory_does_not_grow_with_the_step_count():
    # the kick schedule is built one chunk of steps at a time, so a run of
    # 80k steps peaks within one chunk's schedule (56 bytes a step) of a run
    # of 20k; a chunk holds _CHUNK sub-steps, whole steps of every stage
    import tracemalloc

    from rotpolariton import dynamics

    h0, v, bas, s0 = _dressed_setup(_P_BATCH)
    fld = _batch_field(0.3, 2.0, 0.0)
    peaks = []
    for steps in (20_000, 80_000):
        tracemalloc.start()
        try:
            _fixed_steps(h0, v, [fld], [s0], np.array(_WINDOW), steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < dynamics._CHUNK // len(dynamics._WEIGHTS) * 56


@pytest.mark.parametrize("basis", ["dressed", "product"])
def test_real_and_complex_operators_give_the_same_bits(basis):
    # the kernel takes complex copies of h0 and v: a real pair would go to
    # the real eigensolvers, whose eigenvectors differ in their last bits,
    # and the frame diagonalizes both h0 and v in either basis
    if basis == "dressed":
        h0, v, _ = dressed_operators(_P_BATCH)
    else:
        h0, v = build_full_hamiltonian(_P_BATCH)
    s0 = _unit(range(len(h0)), 0)
    fields = [_batch_field(0.3, 2.0, 0.0), _batch_field(0.1, 1.9, 0.7)]
    times = np.linspace(*_WINDOW, 3)
    real = propagate_batch(h0, v, fields, [s0, s0], times)
    cplx = propagate_batch(np.array(h0, dtype=complex), np.array(v, dtype=complex),
                           fields, [s0, s0], times)
    for a, b in zip(real, cplx):
        assert np.array_equal(a.states, b.states) and a.meta == b.meta


def test_batch_rejects_fields_with_different_windows():
    h0, v, bas, s0 = _dressed_setup(_P_BATCH)
    other = rp.CompositePulse(e0=0.1, tau0=1.5, components=((2.0, 0.0),),
                              t_start=_WINDOW[0], t_end=12.0)
    with pytest.raises(ValueError, match="window"):
        propagate_batch(h0, v, [_batch_field(0.1, 2.0, 0.0), other], [s0, s0],
                        np.array(_WINDOW))


def _counting_kernel(monkeypatch):
    """Record every run of the split-step kernel: its run grid and its step counts n."""
    from rotpolariton import dynamics

    runs = []
    inner = dynamics._run_sampled

    def counting(frame, fields, y0, times, n):
        runs.append((times, list(n)))
        return inner(frame, fields, y0, times, n)

    monkeypatch.setattr(dynamics, "_run_sampled", counting)
    return runs


def _scaled(prev, cur):
    """Whether cur = ceil(r prev) in every interval for one ratio r > 1."""
    lowest = max(max((c - 1) / n for n, c in zip(prev, cur)), 1.0)
    return lowest < min(c / n for n, c in zip(prev, cur))


def _longest(times, counts):
    return max(s / n for s, n in zip(np.diff(times), counts))


def _strong_field_setup(e0=0.3):
    # four sample intervals across the field window
    h0, v, bas, s0 = _dressed_setup(_P_BATCH)
    return h0, v, _batch_field(e0, 2.0, 0.0), s0, np.linspace(*_WINDOW, 5)


def _dense_setup():
    # more sample intervals than twice the pilot's steps: each is shorter
    # than the pilot's half step, so the pilot pair steps each once and twice
    h0, v, bas, s0 = _dressed_setup(_P_BATCH)
    return h0, v, _batch_field(0.3, 2.0, 0.0), s0, np.linspace(*_WINDOW, 257)


def _kick_setup(cavity, bandwidth=0.1, area=rp.KICK_AREA):
    """A kick at the given bandwidth (in g), dressed or on the rotor alone."""
    p = unit_params() if cavity else unit_params(coupling=0.0, n_max=0)
    fld = rp.gaussian_for_area(p, area, tau0=1.0 / (bandwidth * G), omega0=p.omega01)
    if cavity:
        h0, v, _ = dressed_operators(p)
    else:
        h0, v = build_full_hamiltonian(p)
    s0 = _unit(range(len(h0)), 0)
    return h0, v, fld, s0, np.array([fld.t_start, fld.t_end])


def _one_grid(runs):
    """The run grid all runs share, and the step counts of each run."""
    grid = runs[0][0]
    assert all(np.array_equal(g, grid) for g, _ in runs)
    return grid, [taken for _, taken in runs]


def test_kernel_steps_match_the_ladder_in_the_trajectory_meta(monkeypatch):
    runs = _counting_kernel(monkeypatch)
    h0, v, fld, s0, times = _strong_field_setup()
    traj = propagate(h0, v, fld, s0, times)
    grid, counts = _one_grid(runs)
    assert traj.meta["halvings"] >= 2
    assert len(traj.meta["steps"]) == traj.meta["halvings"] + 1
    assert [sum(taken) for taken in counts] == traj.meta["steps"]
    # the four sample intervals of 5 split into 7 run intervals each
    assert np.isin(times, grid).all() and grid.size - 1 == 28
    assert all(len(taken) == grid.size - 1 for taken in counts)
    # each run scales the step count of every run interval by one ratio: 2
    # after the pilot, then the predicted one
    assert counts[1] == [2 * n for n in counts[0]]
    assert all(_scaled(prev, cur) for prev, cur in zip(counts[1:], counts[2:]))
    assert traj.meta["dt"] == _longest(grid, counts[-1])


def test_dense_samples_are_refined_by_every_run(monkeypatch):
    runs = _counting_kernel(monkeypatch)
    h0, v, fld, s0, times = _dense_setup()
    traj = propagate(h0, v, fld, s0, times)
    # sample intervals shorter than half an envelope width gain no breakpoints
    grid, counts = _one_grid(runs)
    assert np.array_equal(grid, times)
    assert counts[0] == [1] * (len(times) - 1)
    assert counts[1] == [2] * (len(times) - 1)
    assert 0.0 < traj.meta["step_error"] <= 1e-8


def test_batch_rows_run_the_ladder_their_meta_implies(monkeypatch):
    # every run takes all rows not yet certified; the last row to leave
    # accounts for every run, the others for a prefix of them.  At this tol
    # the weak row certifies in the pilot pair, the strong one after it
    runs = _counting_kernel(monkeypatch)
    h0, v, bas, s0 = _dressed_setup(_P_BATCH)
    fields = [_batch_field(e0, 2.0, 0.0) for e0 in (0.001, 0.3)]
    times = np.linspace(*_WINDOW, 5)
    weak, strong = propagate_batch(h0, v, fields, [s0, s0], times, tol=1e-6)
    grid, counts = _one_grid(runs)
    assert weak.meta["halvings"] == 1 and 0.0 < weak.meta["step_error"] <= 1e-6
    assert strong.meta["halvings"] >= 2
    steps = [sum(taken) for taken in counts]
    assert steps == strong.meta["steps"]
    assert steps[:2] == weak.meta["steps"]
    assert counts[1] == [2 * n for n in counts[0]] and _scaled(counts[1], counts[2])
    for t in (weak, strong):
        assert t.meta["dt"] == _longest(grid, counts[t.meta["halvings"]])


def test_the_run_grid_splits_long_intervals_and_weighs_them_by_the_envelope():
    from rotpolariton import dynamics

    tau0 = 1.5
    # a scan row's window, +-7 widths, and a long and a short sample interval
    for times, parts in (([-7.0 * tau0, 7.0 * tau0], [28]), ([-10.0, 3.0, 3.5], [18, 1])):
        times = np.array(times)
        grid, samples, weights = dynamics._run_grid(times, tau0)
        assert np.array_equal(grid[samples], times)
        assert list(np.diff(samples)) == parts
        assert np.max(np.diff(grid)) <= 0.5 * tau0 * (1.0 + 1e-12)
        # each weight is the integral of the density exp(-t^2 / 14 tau0^2),
        # here by 16-point Gauss-Legendre quadrature
        x, q = np.polynomial.legendre.leggauss(16)
        for lo, hi, w in zip(grid[:-1], grid[1:], weights):
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            quad = 0.5 * (hi - lo) * np.dot(q, np.exp(-t * t / (14.0 * tau0 ** 2)))
            assert w == pytest.approx(quad, rel=1e-12)


def _linspace_run_grid(times, tau0):
    """_run_grid as it was built before: one np.linspace per sample interval."""
    from rotpolariton import dynamics

    parts = np.maximum(1, np.ceil(np.diff(times) / (dynamics._GRID_WIDTHS * tau0)
                                  - 1e-9)).astype(int)
    grid = np.concatenate([np.linspace(a, b, k + 1)[:-1]
                           for a, b, k in zip(times[:-1], times[1:], parts)] + [times[-1:]])
    samples = np.concatenate([[0], np.cumsum(parts)])
    width = np.sqrt(2.0 * (dynamics._ORDER + 1)) * tau0
    erfs = np.array([math.erf(t / width) for t in grid])
    return grid, samples, 0.5 * np.sqrt(np.pi) * width * np.diff(erfs)


# a kick's window, one sample interval of +-7 widths (CI's one_interval case)
@example(start=-7.0, gaps=[14.0], tau0=1234.5)
# a simulate's 257 trajectory samples, every interval under half a width
@example(start=-7.0, gaps=[14.0 / 256] * 256, tau0=1.5)
@settings(max_examples=200, deadline=None)
@given(start=st.floats(-50.0, 50.0),
       gaps=st.lists(st.one_of(st.floats(1e-3, 0.5), st.floats(0.5, 12.0)),
                     min_size=1, max_size=40),
       tau0=st.floats(1e-2, 1e4))
def test_the_run_grid_is_the_linspace_grid_bit_for_bit(start, gaps, tau0):
    # times and gaps in widths tau0: a sample interval shorter than half a
    # width stays whole, a longer one splits into equal parts
    times = tau0 * (start + np.concatenate([[0.0], np.cumsum(gaps)]))
    assume(np.all(np.diff(times) > 0))
    from rotpolariton import dynamics

    for got, want in zip(dynamics._run_grid(times, tau0), _linspace_run_grid(times, tau0)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_every_run_interval_takes_a_step_and_the_samples_come_back(monkeypatch):
    # a kick's window is one sample interval, which its run grid splits in
    # 28; the tails of the envelope take one step per run interval
    runs = _counting_kernel(monkeypatch)
    h0, v, fld, s0, times = _kick_setup(True, 0.3)
    traj = propagate(h0, v, fld, s0, times)
    grid, counts = _one_grid(runs)
    assert grid.size - 1 == 28 and min(counts[0]) == 1
    assert all(min(taken) >= 1 for taken in counts)
    assert np.array_equal(traj.times, times) and traj.states.shape == (2, len(h0))


def test_a_batch_of_different_envelopes_certifies_every_row(monkeypatch):
    # two kicks of one area share a window but not their width; the run grid
    # follows the broader envelope, whose step density is the higher one
    runs = _counting_kernel(monkeypatch)
    h0, v, broad, s0, times = _kick_setup(True, 0.3)
    narrow = dataclasses.replace(broad, tau0=broad.tau0 / 2.0, e0=2.0 * broad.e0)
    trajs = propagate_batch(h0, v, [narrow, broad], [s0, s0], times)
    grid, _ = _one_grid(runs)
    assert grid.size - 1 == 28
    for fld, traj in zip((narrow, broad), trajs):
        ref = _reference(h0, v, fld, s0, times, 8000)
        est = traj.meta["step_error"]
        assert 0.0 < est <= 1e-8
        assert np.max(np.linalg.norm(traj.states - ref, axis=1)) <= 1.25 * est


def _reference(h0, v, fld, s0, times, steps):
    """The reference states of a run: `steps` fixed steps per sample interval."""
    return _fixed_steps(h0, v, [fld], [s0], times, steps)[:, 0]


# setup, the runs after the first it certifies in (2 after the predicted run,
# 1 in the pilot pair), and the steps per sample interval of its reference.
# Each reference takes the steps a run certified at tol 1e-12 took (estimates
# of 3e-14 to 2e-13) before the norm drift entered the step error; at that
# tol these runs now stop at their drift of 2e-12 to 9e-11.  On the graded
# run grid, "strong" needs e0 5 for a predicted run of more than 8 times its
# pilot's half run, and "dressed-pilot" an area of 5e-4 to certify in the
# pilot pair
_CERTIFIED = {
    "bare": (functools.partial(_kick_setup, False, 0.5, 0.6), 2, 5363),
    "dressed": (functools.partial(_kick_setup, True), 2, 19846),
    "strong": (functools.partial(_strong_field_setup, 5.0), 2, 414),
    "bare-pilot": (functools.partial(_kick_setup, False), 1, 23108),
    "dressed-pilot": (functools.partial(_kick_setup, True, 0.3, 0.0005), 1, 1856),
    "dense": (_dense_setup, 1, 4),
}


@pytest.mark.parametrize("name", list(_CERTIFIED))
def test_certified_error_bounds_the_actual_error(name):
    # the reported step error must track the real error of the certified
    # run, measured against a run about four orders more accurate: where the
    # predicted step is far below the pilot's half step, where the pilot
    # pair certifies, and on samples denser than the pilot's steps
    setup, halvings, ref_steps = _CERTIFIED[name]
    h0, v, fld, s0, times = setup()
    traj = propagate(h0, v, fld, s0, times, tol=1e-8)
    ref = _reference(h0, v, fld, s0, times, ref_steps)
    est = traj.meta["step_error"]
    assert 0.0 < est <= 1e-8
    assert np.max(np.linalg.norm(traj.states - ref, axis=1)) <= 1.25 * est
    if name == "strong":
        assert traj.meta["steps"][2] > 8 * traj.meta["steps"][1]
    assert traj.meta["halvings"] == halvings


def test_a_pilot_pair_certificate_keeps_a_margin_under_tol():
    # the pilot pair of a weak dressed kick reads its error about 1.15 times
    # low (here 4.37e-9 for an actual 5.05e-9), so a row leaves there only
    # at tol / _PILOT_MARGIN; this one goes on to the predicted run
    h0, v, fld, s0, times = _kick_setup(True, 0.5, 0.01)
    tol = 5e-9
    traj = propagate(h0, v, fld, s0, times, tol=tol)
    ref = _reference(h0, v, fld, s0, times, 1213)
    assert traj.meta["step_error"] <= tol
    assert np.max(np.linalg.norm(traj.states - ref, axis=1)) <= tol


def test_weights_are_of_the_kernels_order():
    # a symmetric composition of Strang steps is of order 6 only if its
    # weights sum to 1 and their cubes and fifth powers to 0; the measured
    # error of a dressed kick at 2 and 4 times the pilot's 108 steps shows it
    from rotpolariton import dynamics

    c = np.array(dynamics._WEIGHTS)
    assert np.array_equal(c, c[::-1])
    for power, want in ((1, 1.0), (3, 0.0), (5, 0.0)):
        assert abs(np.sum(c ** power) - want) <= 1e-15
    h0, v, fld, s0, times = _kick_setup(True, 0.5)
    ref = _reference(h0, v, fld, s0, times, 5194)
    errors = []
    for steps in (216, 432):
        out = _reference(h0, v, fld, s0, times, steps)
        errors.append(np.linalg.norm(out[-1] - ref[-1]))
    assert np.log2(errors[0] / errors[1]) >= dynamics._ORDER - 0.3


# ----------------------------------------------- cross-basis consistency

@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_change_of_basis_rotates_the_result(seed):
    # h0, v and the initial state turned by a random unitary U: the
    # certified result is U times the unturned one, each within tol of the
    # exact evolution, at every sample
    h0, v, fld, _, _ = _kick_setup(True, 1.0)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=h0.shape) + 1j * rng.normal(size=h0.shape))
    s0 = _random_state(seed, range(len(h0)))
    times = np.linspace(fld.t_start, fld.t_end, 5)
    tol = 1e-8
    plain = propagate(h0, v, fld, s0, times, tol=tol)
    turned = propagate(u @ h0 @ u.conj().T, u @ v @ u.conj().T, fld, u @ s0, times, tol=tol)
    assert np.max(np.linalg.norm(turned.states - plain.states @ u.T, axis=1)) <= 2.0 * tol


@functools.lru_cache(maxsize=None)
def _population_mismatch(ratio, j_max, n_max, bw_ratio):
    """Dressed-frame vs product-frame kick populations.

    The product-frame run starts from the exact coupled ground state and is
    read out by projecting on the exact static eigenvectors, so the static
    counter-rotating dressing of the initial and final states drops out and
    the number below isolates the dynamical difference.
    """
    g = ratio * 2.0 * B
    p = rp.SystemParams(rot_const=B, dipole=1.0, coupling=g, j_max=j_max, n_max=n_max)
    fld = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / (bw_ratio * g),
                               omega0=p.omega01)
    h0d, vd, bas = dressed_operators(p)
    td = propagate(h0d, vd, fld, _unit(bas.labels, "0;0"), np.array([fld.t_start, fld.t_end]), tol=1e-9)
    pd = np.abs(td.states[-1]) ** 2

    h0f, vf = build_full_hamiltonian(p)
    vecs, _evals, _ = adiabatic_dressed_vectors(p)
    tf = propagate(h0f, vf, fld, vecs[:, 0], np.array([fld.t_start, fld.t_end]), tol=1e-9)
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "counter-rotating terms shift the doublet transition frequencies at "
    "relative order g/omega01, which feeds the kick populations at first "
    "order in g; the frame mismatch floors near 2e-5 at g = 0.01 omega01 "
    "and reaching 1e-6 would need g ~ 5e-4 omega01"))
def test_frame_agreement_at_inaccessible_tolerance():
    assert _population_mismatch(0.01, j_max=2, n_max=2, bw_ratio=0.5) < 1e-6


def test_truncation_is_converged():
    # enlarging either ladder must not move a broadband kick's populations
    p8 = unit_params(coupling=0.0, n_max=0)
    p10 = unit_params(coupling=0.0, n_max=0, j_max=10)
    fld = rp.gaussian_for_area(p8, rp.KICK_AREA, tau0=1.0 / G, omega0=p8.omega01)
    pops = {}
    for p in (p8, p10):
        h0, v = build_full_hamiltonian(p)
        traj = propagate(h0, v, fld, _unit(range(p.j_max + 1), 0), np.array([fld.t_start, fld.t_end]))
        pops[p.j_max] = np.abs(traj.states[-1]) ** 2
    assert np.max(np.abs(pops[8] - pops[10][:9])) < 1e-6
    assert np.sum(pops[10][9:]) < 1e-6

    d = {}
    for n_max in (4, 6):
        p = unit_params(n_max=n_max)
        h0, v, bas = dressed_operators(p)
        fldc = rp.gaussian_for_area(p, rp.KICK_AREA, tau0=1.0 / (0.5 * G),
                                    omega0=p.omega01)
        traj = propagate(h0, v, fldc, _unit(bas.labels, "0;0"), np.array([fldc.t_start, fldc.t_end]))
        d[n_max] = {lab: float(abs(a) ** 2)
                    for lab, a in zip(bas.labels, traj.states[-1])}
    common = [lab for lab in d[4] if lab != "edge"]
    assert max(abs(d[4][lab] - d[6][lab]) for lab in common) < 1e-6
