"""Wavefunction propagation and the first-order analytic pulse map.

The total Hamiltonian is H(t) = h0 - E(t) v with h0, v time independent.
One split-step kernel propagates R state rows at once, each under its own
field, in the eigenbasis of v: there a field kick is a diagonal phase per
row and the drift is one dense block shared by all rows, built once per
step size.  Strang and Yoshida-4 are two sets of composition weights for
that kernel; the exact-exponential midpoint rule stays as a reference.
Outside the field window the evolution is applied in closed form, which
makes long post-pulse traces essentially free.

Step control is a two-tier affair: a heuristic initial step resolves the
fastest carrier and the drift spectral span, and the result is certified by
comparing against a propagation at half the step, halving until two
successive refinements agree pointwise at every requested sample.  Rows of
one batch share the finest initial step any of them needs and leave the
halving ladder one by one, each once its own estimate is certified.
"""

from dataclasses import dataclass, field as dc_field
from itertools import chain, cycle, islice

import numpy as np

from .errors import BasisMismatch, NotConverged
from .model import OperatorMatrix
from .pulse import carrier_ceiling, field_value

__all__ = [
    "StateVector",
    "Trajectory",
    "unit_state",
    "expand_to_labels",
    "propagate",
    "propagate_batch",
    "free_evolve",
    "to_interaction",
    "to_schrodinger",
    "magnus_wavefunction",
]

_PICTURES = ("schrodinger", "interaction")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes tagged with basis, picture, and time."""

    amplitudes: np.ndarray
    basis: str
    picture: str = "schrodinger"
    time: float = 0.0
    labels: tuple = None

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 1:
            raise ValueError("amplitudes must be a 1d array")
        if self.picture not in _PICTURES:
            raise ValueError(f"picture must be one of {_PICTURES}")
        if self.labels is not None and len(self.labels) != a.size:
            raise ValueError("labels length does not match amplitudes")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self):
        return self.amplitudes.size

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def population(self, i):
        return float(np.abs(self.amplitudes[i]) ** 2)

    def overlap(self, other):
        if other.dim != self.dim:
            raise BasisMismatch("overlap between states of different dimension")
        if other.basis != self.basis:
            raise BasisMismatch(f"overlap between bases {self.basis!r} and {other.basis!r}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Trajectory:
    """States sampled on a time grid, all in one basis and picture."""

    times: np.ndarray
    states: np.ndarray
    basis: str
    picture: str = "schrodinger"
    labels: tuple = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        s = np.array(self.states, dtype=complex)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise ValueError("need times (m,) and states (m, dim)")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self):
        return self.times.size

    @property
    def dim(self):
        return self.states.shape[1]

    def state_at(self, i):
        return StateVector(self.states[i], basis=self.basis, picture=self.picture,
                           time=float(self.times[i]), labels=self.labels)

    def norms(self):
        return np.linalg.norm(self.states, axis=1)


def unit_state(labels, which, basis, picture="schrodinger", time=0.0):
    """Basis state picked by label (str) or index (int)."""
    labels = tuple(labels)
    idx = labels.index(which) if isinstance(which, str) else int(which)
    a = np.zeros(len(labels), dtype=complex)
    a[idx] = 1.0
    return StateVector(a, basis=basis, picture=picture, time=time, labels=labels)


def expand_to_labels(state, labels):
    """Embed a labeled state into a larger labeled space, zero elsewhere."""
    if state.labels is None:
        raise ValueError("state has no labels to match")
    labels = tuple(labels)
    a = np.zeros(len(labels), dtype=complex)
    for lab, amp in zip(state.labels, state.amplitudes):
        a[labels.index(lab)] = amp
    return StateVector(a, basis=state.basis, picture=state.picture,
                       time=state.time, labels=labels)


def _unpack(op, expect_basis=None):
    if isinstance(op, OperatorMatrix):
        if expect_basis is not None and op.basis != expect_basis:
            raise BasisMismatch(f"operator in basis {op.basis!r}, expected {expect_basis!r}")
        return op.matrix, op.basis
    m = np.asarray(op, dtype=complex)
    return m, expect_basis


class _SplitFrame:
    """The eigenbasis of v, in which every propagation runs.

    There a field kick exp(i c h E(t) v) is a diagonal phase on each state
    row, and the free drift exp(-i tau h0) is one dense block for all rows.
    States are rows: y = psi @ conj(u) and psi = y @ u.T, with u the
    eigenvectors of v in the operators' basis.
    """

    def __init__(self, h0, v):
        offdiag = h0 - np.diag(np.diag(h0))
        if np.max(np.abs(offdiag)) < 1e-14 * max(1.0, np.max(np.abs(h0))):
            self.eps = np.diag(h0).real.copy()
            q = None
            self.vt = np.asarray(v, dtype=complex)
        else:
            self.eps, q = np.linalg.eigh(h0)
            self.vt = q.conj().T @ v @ q
        self.w, self.wv = np.linalg.eigh(self.vt)
        self.u = self.wv if q is None else q @ self.wv

    def to_frame(self, psi):
        return psi @ self.u.conj()

    def from_frame(self, y):
        return y @ self.u.T

    def drift(self, tau):
        """Free evolution of state rows over tau: (W^H exp(-i tau eps) W)^T."""
        return (self.wv.T * np.exp(-1j * tau * self.eps)) @ self.wv.conj()

    def free(self, y, taus):
        """Rows y after free evolution over each of taus, shape (taus, rows, dim)."""
        phases = np.exp(-1j * np.multiply.outer(taus, self.eps))
        return ((y @ self.wv.T) * phases[:, None, :]) @ self.wv.conj()


# split-step composition weights: one step of length h is the product of
# Strang sub-steps of lengths c h (Yoshida, Phys. Lett. A 150, 262, 1990)
_Y4_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_WEIGHTS = {
    "strang": (1.0,),
    "yoshida4": (_Y4_W1, 1.0 - 2.0 * _Y4_W1, _Y4_W1),
}

# field values are evaluated for this many steps at a time, and their kick
# phases exponentiated in blocks of at most _PHASE_ELEMS complex numbers
_CHUNK = 2048
_PHASE_ELEMS = 1 << 16


def _schedule(times, fa, fb, dt):
    """Field overlap [lo, hi] of each sample interval, its step count and step."""
    lo = np.clip(times[:-1], fa, fb)
    hi = np.clip(times[1:], fa, fb)
    span = hi - lo
    on = span > 0
    n = np.zeros(span.size, dtype=int)
    n[on] = np.maximum(1, np.ceil(span[on] / dt))
    h = np.zeros(span.size)
    h[on] = span[on] / n[on]
    return lo, hi, n, h


def _split_steps(frame, fields, lo, n, h, weights):
    """The split-step kernel of one run at one step size.

    Returns advance(y, i, pre, post), which takes all state rows y through
    sample interval i: a drift over `pre`, the n[i] steps of length h[i] in
    the field, and a drift over `post`.  Kicks sit at the sub-step
    midpoints.  The half drifts that close one sub-step and open the next
    are fused, so a step costs len(weights) diagonal kicks and dense drifts
    for all rows together.  Field phases are computed for the whole run in
    chunks of _CHUNK steps, consumed in step order across intervals.
    """
    c = np.asarray(weights)
    fuse = 0.5 * (c + np.roll(c, -1))
    on = n > 0
    starts = np.concatenate([a + b * np.arange(k) for a, b, k in zip(lo[on], h[on], n[on])])
    hs = np.repeat(h[on], n[on])[:, None]
    kick_t = starts[:, None] + hs * (np.cumsum(c) - 0.5 * c)
    kick_c = hs * c
    sub = max(1, _PHASE_ELEMS // (c.size * len(fields) * frame.w.size))

    def phases():
        for a in range(0, starts.size, _CHUNK):
            ts = kick_t[a:a + _CHUNK]
            arg = np.stack([field_value(f, ts) for f in fields], axis=-1)
            arg *= kick_c[a:a + _CHUNK, :, None]
            for b in range(0, arg.shape[0], sub):
                kicks = np.exp(1j * arg[b:b + sub, :, :, None] * frame.w)
                yield kicks.reshape(-1, len(fields), frame.w.size)

    # one kick phase per sub-step, in step order across intervals
    stream = chain.from_iterable(phases())
    blocks = {}

    def drift(tau):
        # dense drift blocks, built once per distinct length
        block = blocks.get(tau)
        if block is None:
            block = blocks[tau] = frame.drift(tau)
        return block

    def advance(y, i, pre, post):
        half = 0.5 * c[0] * h[i]
        drifts = cycle([drift(f * h[i]) for f in fuse])
        y = np.dot(y, drift(pre + half))
        kicked = np.empty_like(y)
        for kick, block in zip(islice(stream, n[i] * c.size), drifts):
            # in place, and np.dot over @: less call overhead on small operands
            np.multiply(y, kick, out=kicked)
            np.dot(kicked, block, out=y)
        # the last fused drift overshoots the closing half drift by c[0] h / 2
        return np.dot(y, drift(post - half))

    return advance


def _midpoint_steps(frame, fields, lo, n, h):
    """Reference integrator: the exact exponential of H(t_mid), row by row."""
    h0v = frame.wv.conj().T @ (frame.eps[:, None] * frame.wv)
    vv = np.diag(frame.w)

    def advance(y, i, pre, post):
        y = y @ frame.drift(pre)
        mids = lo[i] + h[i] * (np.arange(n[i]) + 0.5)
        for r, fld in enumerate(fields):
            for e in field_value(fld, mids):
                ev, vec = np.linalg.eigh(h0v - e * vv)
                y[r] = ((y[r] @ vec.conj()) * np.exp(-1j * h[i] * ev)) @ vec.T
        return y @ frame.drift(post)

    return advance


# fourth-order splitting tolerates a far coarser trial step than the
# second-order kernels at the same certification tolerance
_STEPS_PER_PERIOD = {"yoshida4": 8, "strang": 96, "midpoint": 96}

# convergence order, for the Richardson factor 2^p - 1 relating the
# dt vs dt/2 difference to the error of the dt/2 solution
_ORDER = {"yoshida4": 4, "strang": 2, "midpoint": 2}


def _default_dt(frame, fld, method):
    """First trial step: resolve the drive, not the full diagonal span.

    Every kernel applies the h0 phases exactly, so step error enters only
    through the field: the carrier oscillation, the Rabi angle per step, and
    the h0-v commutators, which see just the energy gaps v actually couples
    (selection-rule zeros keep that span far below the full spectral width).
    Starting finer than needed is not harmless: the certified solution then
    accumulates roundoff linearly in the step count.  Halving certification
    in propagate backstops a too-coarse start.
    """
    vt = np.abs(frame.vt)
    coupled = vt > 1e-12 * float(vt.max())
    gaps = np.abs(frame.eps[:, None] - frame.eps[None, :])[coupled]
    w_gap = float(gaps.max()) if gaps.size else 0.0
    ts = np.linspace(fld.t_start, fld.t_end, 513)
    peak = float(np.max(np.abs(field_value(fld, ts))))
    w_rabi = peak * float(np.linalg.norm(frame.vt, 2))
    w_fast = carrier_ceiling(fld) + w_gap + w_rabi
    w_fast = max(w_fast, 2.0 * np.pi / (fld.t_end - fld.t_start))
    return (2.0 * np.pi / w_fast) / _STEPS_PER_PERIOD[method]


def _run_sampled(frame, fields, y0, times, dt, method):
    """Frame states of all rows at every sample time, shape (times, rows, dim)."""
    lo, hi, n, h = _schedule(times, fields[0].t_start, fields[0].t_end, dt)
    if method == "midpoint":
        advance = _midpoint_steps(frame, fields, lo, n, h)
    else:
        advance = _split_steps(frame, fields, lo, n, h, _WEIGHTS[method])
    out = np.empty((times.size,) + y0.shape, dtype=complex)
    out[0] = y = y0
    for i in range(times.size - 1):
        if n[i]:
            y = advance(y, i, lo[i] - times[i], times[i + 1] - hi[i])
        else:
            y = y @ frame.drift(times[i + 1] - times[i])
        out[i + 1] = y
    return out


def propagate_batch(h0, v, fields, states0, times, method="yoshida4", dt=None,
                    tol=1e-8, max_halvings=6, labels=None):
    """Propagate each initial state through its own field; one result per row.

    Row r starts from states0[r] and feels fields[r].  The rows must share
    basis, start time and field window; they run together at one step size,
    the finest trial step any of their fields needs (or `dt`), and halve it
    together.  Each row leaves the halving ladder at the first level where
    its own Richardson estimate (the dt vs dt/2 difference over
    2^order - 1, per-sample 2-norm) reaches `tol`.  Returns a list holding,
    per row, its Trajectory or, when `max_halvings` runs out first, its
    NotConverged error.
    """
    fields, states0 = list(fields), list(states0)
    if not states0 or len(fields) != len(states0):
        raise ValueError("need one field per initial state, and at least one")
    first = states0[0]
    if any(s.picture != "schrodinger" for s in states0):
        raise ValueError("propagate expects schrodinger-picture states")
    if any(s.basis != first.basis or s.dim != first.dim for s in states0):
        raise BasisMismatch("the initial states of one batch must share their basis")
    h0m, _ = _unpack(h0, expect_basis=first.basis)
    vm, _ = _unpack(v, expect_basis=first.basis)
    if h0m.shape[0] != first.dim or vm.shape != h0m.shape:
        raise BasisMismatch("operator and state dimensions disagree")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1d array, length >= 2")
    if any(abs(times[0] - s.time) > 1e-12 * max(1.0, abs(times[0])) for s in states0):
        raise ValueError("times[0] must equal state0.time")
    windows = {None if f is None else (f.t_start, f.t_end) for f in fields}
    if len(windows) != 1:
        raise ValueError("the fields of one batch must share their window")
    if method not in _ORDER:
        raise ValueError(f"unknown method {method!r}")
    labels = labels if labels is not None else first.labels

    frame = _SplitFrame(h0m, vm)
    y0 = frame.to_frame(np.array([s.amplitudes for s in states0]))

    def trajectory(y, meta):
        return Trajectory(times, frame.from_frame(y), basis=first.basis,
                          picture="schrodinger", labels=labels, meta=meta)

    (window,) = windows
    if window is None or window[1] <= times[0] or window[0] >= times[-1]:
        # no field overlap: closed-form drift at the sample times
        states = frame.free(y0, times - times[0])
        meta = {"method": "exact", "dt": None, "halvings": 0, "step_error": 0.0}
        return [trajectory(states[:, r], dict(meta)) for r in range(len(states0))]

    dt0 = min(_default_dt(frame, f, method) for f in fields) if dt is None else float(dt)
    richardson = 2.0 ** _ORDER[method] - 1.0
    results = [None] * len(states0)
    rows = np.arange(len(states0))
    err = np.full(rows.size, np.inf)
    used = dt0
    prev = _run_sampled(frame, fields, y0, times, dt0, method)
    for k in range(1, max_halvings + 1):
        used = dt0 / 2 ** k
        cur = _run_sampled(frame, [fields[r] for r in rows], y0[rows], times, used, method)
        err = np.max(np.linalg.norm(cur - prev, axis=2), axis=0) / richardson
        done = err <= tol
        for j in np.flatnonzero(done):
            results[rows[j]] = trajectory(cur[:, j], {"method": method, "dt": used,
                                                      "halvings": k,
                                                      "step_error": float(err[j])})
        rows, err, prev = rows[~done], err[~done], cur[:, ~done]
        if not rows.size:
            return results
    for r, e in zip(rows, err):
        results[r] = NotConverged(
            f"step halving stalled at estimated error {e:.3e} > tol {tol:g} after "
            f"{max_halvings} halvings (dt = {used:g})"
        )
    return results


def propagate(h0, v, fld, state0, times, method="yoshida4", dt=None,
              tol=1e-8, max_halvings=6, labels=None):
    """Propagate state0 through the field, sampling at `times`.

    h0 and v may be OperatorMatrix (basis tags are then checked against the
    state) or plain arrays.  `fld` may be None for pure free evolution.
    `times` must be strictly increasing and start at state0.time.  The result
    is certified by step halving: the Richardson estimate of the returned
    solution's error (the dt vs dt/2 difference over 2^order - 1, per-sample
    2-norm) must reach `tol`; exceeding `max_halvings` raises NotConverged.
    This is the one-row call of propagate_batch.
    """
    (result,) = propagate_batch(h0, v, [fld], [state0], times, method=method, dt=dt,
                                tol=tol, max_halvings=max_halvings, labels=labels)
    if isinstance(result, NotConverged):
        raise result
    return result


def free_evolve(state, t_final, energies):
    """Closed-form drift under a diagonal Hamiltonian with the given energies."""
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (state.dim,):
        raise BasisMismatch("energies length does not match the state")
    if state.picture == "interaction":
        amps = state.amplitudes
    else:
        amps = np.exp(-1j * energies * (t_final - state.time)) * state.amplitudes
    return StateVector(amps, basis=state.basis, picture=state.picture,
                       time=float(t_final), labels=state.labels)


def to_interaction(state, energies, t_ref=0.0):
    """Strip the drift phases accumulated since t_ref."""
    if state.picture == "interaction":
        raise ValueError("state is already in the interaction picture")
    energies = np.asarray(energies, dtype=float)
    amps = np.exp(1j * energies * (state.time - t_ref)) * state.amplitudes
    return StateVector(amps, basis=state.basis, picture="interaction",
                       time=state.time, labels=state.labels)


def to_schrodinger(state, energies, t_ref=0.0):
    """Restore the drift phases relative to t_ref."""
    if state.picture == "schrodinger":
        raise ValueError("state is already in the schrodinger picture")
    energies = np.asarray(energies, dtype=float)
    amps = np.exp(-1j * energies * (state.time - t_ref)) * state.amplitudes
    return StateVector(amps, basis=state.basis, picture="schrodinger",
                       time=state.time, labels=state.labels)


_MAGNUS_LABELS = ("0;0", "+;0", "-;0", "+;1", "-;1")


def magnus_wavefunction(areas, time=0.0):
    """First-order analytic pulse map on the lowest five dressed states.

    Given the spectral areas accumulated up to some instant, returns the
    interaction-picture amplitudes

        c_ground = 1 - theta0^2 (1 - cos Theta) / Theta^2
        c_{l;0}  = i (sin Theta / Theta) conj(Theta_{l,0})
        c_{l;1}  = -((1 - cos Theta)/Theta^2) conj(sum_s Theta_{s,0} Theta_{s,l,1})

    with Theta the total aggregate area.  The Theta -> 0 limits are handled
    through numerically stable sinc forms.
    """
    th = areas.theta
    # (1 - cos x)/x^2 = sinc(x/2pi)^2 / 2 with numpy's normalized sinc
    hfac = 0.5 * np.sinc(th / (2.0 * np.pi)) ** 2
    sfac = np.sinc(th / np.pi)

    t0 = {+1: areas.theta_up0, -1: areas.theta_lo0}
    amps = np.empty(5, dtype=complex)
    amps[0] = 1.0 - areas.theta0 ** 2 * hfac
    amps[1] = 1j * sfac * np.conj(t0[+1])
    amps[2] = 1j * sfac * np.conj(t0[-1])
    for col, l in ((3, +1), (4, -1)):
        cross = sum(t0[s] * areas.doublet[(s, l)] for s in (+1, -1))
        amps[col] = -hfac * np.conj(cross)
    return StateVector(amps, basis="dressed", picture="interaction",
                       time=float(time), labels=_MAGNUS_LABELS)
