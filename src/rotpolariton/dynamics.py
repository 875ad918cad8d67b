"""Wavefunction propagation.

The total Hamiltonian is H(t) = h0 - E(t) v with h0, v time independent.
One split-step kernel, _run_sampled, propagates R state rows at once, each
under its own field, in the eigenbasis of v: there a field kick is a
diagonal phase per row and the drift is one dense block shared by all rows,
built once per step length, from h0 always diagonalised, however small its
couplings.  The drift runs as a real product on the rows' float view, an
exact rewrite of the complex one that reaches BLAS's faster small real
kernel.  The composition weights are Kahan and Li's sixth-order nine-stage
composition.

Every run steps over a run grid: the sample times, plus breakpoints that
split each sample interval longer than half an envelope width into equal
parts.  Each run interval takes steps in proportion to the integral of
|E|^(1/7) over it, the density that spreads the local error evenly, so the
steps sit where the Gaussian field is.

Step control predicts, then certifies.  A pilot pair, a heuristic coarse
step at the envelope's peak that resolves the fastest carrier and the
coupled drift gaps and its half, gives a Richardson estimate; from
err ~ dt^p each later run scales the step count of every run interval by
the ratio predicted to land safely under the tolerance, and is certified
against the run before it at the sample times.  So every interval is
refined, however short, and none escapes the estimate.  Rows of one batch
share the finest pilot step any of them needs and leave one by one, each
once its own estimate is certified.  The exact evolution is unitary, so a
row's norm drift is a lower bound on its error: it enters the estimate, and
a row whose drift alone exceeds the tolerance stops there, since roundoff
grows with the steps.
"""

import math
from dataclasses import dataclass
from itertools import chain, cycle, islice

import numpy as np

from .errors import ConfigError, NotConverged
from .pulse import carrier_ceiling, field_value

__all__ = [
    "Trajectory",
    "propagate",
    "propagate_batch",
]


@dataclass(frozen=True)
class Trajectory:
    """States (times, dim) sampled at `times`, with the run's step-control meta."""

    times: np.ndarray
    states: np.ndarray
    meta: dict


class _SplitFrame:
    """The eigenbasis of v, in which every propagation runs.

    h0 is always diagonalised first, diagonal or not, into eps and q.  There a
    field kick exp(i c h E(t) v) is a diagonal phase on each state row, and
    the free drift exp(-i tau h0) is one dense block for all rows.  States
    are rows: y = psi @ conj(u) and psi = y @ u.T, with u the eigenvectors
    of v in the operators' basis.  h0 and v are complex arrays.
    """

    def __init__(self, h0, v):
        self.eps, q = np.linalg.eigh(h0)
        self.vt = q.conj().T @ v @ q
        self.w, self.wv = np.linalg.eigh(self.vt)
        self.u = q @ self.wv
        # v has few distinct |eigenvalues|: +-mu01 dressed, the symmetric
        # Gauss-Legendre nodes bare.  Those within a few ulps are merged, so
        # a kick takes one exponential per level, and conjugates for w < 0.
        mag = np.abs(self.w)
        order = np.argsort(mag, kind="stable")
        new = np.diff(mag[order]) > 16.0 * np.spacing(mag.max())
        self.levels = mag[order][np.concatenate([[True], new])]
        group = np.empty(self.w.size, dtype=int)
        group[order] = np.concatenate([[0], np.cumsum(new)])
        self.gather = group + self.levels.size * (self.w < 0)
        # what sizes the pilot step (_default_dt) of every field: the largest
        # drift gap v couples, and v's 2-norm
        vt = np.abs(self.vt)
        gaps = np.abs(self.eps[:, None] - self.eps[None, :])[vt > 1e-12 * float(vt.max())]
        self.w_gap = float(gaps.max()) if gaps.size else 0.0
        self.v_norm = float(np.linalg.norm(self.vt, 2))

    def kicks(self, arg):
        """exp(i arg w) for each eigenvalue w of v, shape arg.shape + (dim,)."""
        u = self.levels.size
        x = arg[..., None] * self.levels
        e = np.empty(x.shape[:-1] + (2 * u,), dtype=complex)
        np.cos(x, out=e.real[..., :u])
        np.sin(x, out=e.imag[..., :u])
        np.conjugate(e[..., :u], out=e[..., u:])
        # np.take keeps the result C-ordered, so each row's kick is contiguous
        return np.take(e, self.gather, axis=-1)

    def drift(self, taus):
        """Free evolution of state rows over each tau, as real (2 dim, 2 dim) blocks.

        A complex row y evolves as y @ D, D = (W^H exp(-i tau eps) W)^T.  Rows
        2k and 2k + 1 of a block are the float views of D[k] and 1j D[k], so
        the block acts on y's interleaved float view (re, im, re, im ...) as D
        acts on y; each entry is exactly the real or imaginary part of an
        entry of D, or its negative.
        """
        phase = np.exp(-1j * np.asarray(taus)[:, None, None] * self.eps)
        d = (self.wv.T * phase) @ self.wv.conj()
        return np.stack([d, 1j * d], axis=2).view(float).reshape(len(d), 2 * d.shape[1], -1)


# split-step composition weights: one step of length h is the product of
# Strang sub-steps of lengths c h, the symmetric sixth-order nine-stage
# composition s9odr6a of Kahan & Li (Math. Comp. 66, 1089, 1997; Hairer,
# Lubich & Wanner, Geometric Numerical Integration, V.3).  At a predicted
# step and a pilot of one step per period they take 43 % fewer sub-steps
# than Suzuki's fourth-order five stages on simulate_io, 15 % on kick_scan
_GAMMA = (0.39216144400731413928, 0.33259913678935943860, -0.70624617255763935981,
          0.08221359629355080023, 0.79854399093482996340)
_WEIGHTS = _GAMMA + _GAMMA[-2::-1]

# _run_sampled evaluates field values for about this many sub-steps at a time
# (whole steps, so the working set does not grow with the stage count), and
# exponentiates their kick phases in blocks of at most _PHASE_ELEMS complex
# numbers: 256 kB, so a block stays in L2 cache while the loop reads it.
# Against blocks four times that size it takes 2.4 MB off the kick_scan
# benchmark's peak memory; its wall time moved within noise
_CHUNK = 10240
_PHASE_ELEMS = 1 << 14

# the most steps one run may take.  It bounds work, not memory: the kick
# schedule is built _CHUNK sub-steps at a time.  A sub-step, kick phases
# included, takes about 1.1 us on one state row and 1.3 us on three (dim 10),
# nine to a step, so the cap is some 20-23 s per run; the largest run of the
# presets takes 5,720 steps, of the tests 80,000 (a fixed-step run) and, among
# certified runs, 6,862
_MAX_STEPS = 2_000_000

# the most runs after the pilot: its half, then each at the predicted step
_MAX_HALVINGS = 6


def _step_counts(want):
    """ceil(want) steps, at least 1, in each run interval.

    A run above _MAX_STEPS steps, or with an infinite or undefined count,
    raises ConfigError before it starts.
    """
    with np.errstate(invalid="ignore"):
        steps = np.maximum(1.0, np.ceil(want))
        total = float(np.sum(steps))
    if not total <= _MAX_STEPS:
        raise ConfigError(f"propagation: a run needs {total:.4g} steps, "
                          f"above the cap of {_MAX_STEPS}")
    return steps.astype(int)


# convergence order: err ~ dt^p sizes the predicted step, and a run at step
# h certified against one at r h has error (difference) / (r^p - 1)
_ORDER = 6

# the predicted step aims at this fraction of tol, so that it certifies in
# one run although the pilot pair sits at the edge of the asymptotic regime.
# It also keeps step errors well under the flat-trace rule of control: at
# 1/4 a weak seed-0 benchmark trace (maximum 1.4e-7) lands at an error of
# 2.9e-9, close to the 3.5e-9 where it would turn flat; at 1/8, 1.45e-9 on
# evenly spaced steps and 6.3e-10 on the graded run grid
_SAFETY = 1.0 / 8.0

# a row leaves in the pilot pair only at an estimate of tol / _PILOT_MARGIN
# or below: one step per period sits outside the dt^p regime on weak dressed
# kicks, whose pilot-pair estimates read up to 1.155 times low (1.148 on the
# graded run grid, at 0.3 g and area 5e-4)
_PILOT_MARGIN = 1.25


def _default_dt(frame, fld):
    """Pilot step: resolve the drive, not the full diagonal span.

    The kernel applies the h0 phases exactly, so step error enters only
    through the field: the carrier oscillation, the Rabi angle per step, and
    the h0-v commutators, which see just the energy gaps v actually couples
    (selection-rule zeros keep that span far below the full spectral width).
    The pilot pair runs at this step and its half; their estimate predicts
    the certified step, so the pilot needs to be coarse, not accurate.
    """
    ts = np.linspace(fld.t_start, fld.t_end, 513)
    peak = float(np.max(np.abs(field_value(fld, ts))))
    w_fast = carrier_ceiling(fld) + frame.w_gap + peak * frame.v_norm
    w_fast = max(w_fast, 2.0 * np.pi / (fld.t_end - fld.t_start))
    # one step per period of the fastest frequency: coarse, since it only
    # sizes the certified step
    return 2.0 * np.pi / w_fast


# the run grid splits every sample interval longer than this many envelope
# widths tau0 into equal parts, so that step counts can follow the envelope:
# a scan record's window of +-7 tau0 becomes 28 run intervals (14 and 56
# measured alike, 7 up to a quarter worse)
_GRID_WIDTHS = 0.5


def _run_grid(times, tau0):
    """The grid a run steps over, the indices of the sample times in it, and its weights.

    The grid is the sample times plus breakpoints that split every sample
    interval longer than _GRID_WIDTHS tau0 into equal parts.  With an exact
    drift, a step's local error carries a factor E(t) and goes as h^(p+1)
    |E(t)|; spread evenly over the run, it asks for a step density
    proportional to |E|^(1/(p+1)), the envelope exp(-t^2 / 2 tau0^2) to the
    power 1/7 (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  An
    interval's weight is that density's integral over it, in erf values, so
    weight / dt steps make the local step dt at the envelope's peak.
    """
    # the slack keeps a window of a whole number of half widths from rounding
    # up to one part more
    parts = np.maximum(1, np.ceil(np.diff(times) / (_GRID_WIDTHS * tau0) - 1e-9)).astype(int)
    samples = np.concatenate([[0], np.cumsum(parts)])
    # part j of sample interval [a, b] starts at j ((b - a) / k) + a, the
    # arithmetic of np.linspace(a, b, k + 1), so the grid is its bits
    j = np.arange(samples[-1]) - np.repeat(samples[:-1], parts)
    grid = np.append(j * np.repeat(np.diff(times) / parts, parts)
                     + np.repeat(times[:-1], parts), times[-1])
    width = math.sqrt(2.0 * (_ORDER + 1)) * tau0
    erfs = np.array([math.erf(t / width) for t in grid])
    return grid, samples, 0.5 * math.sqrt(math.pi) * width * np.diff(erfs)


def _run_sampled(frame, fields, y0, times, n):
    """One run of n[i] steps over each interval [times[i], times[i + 1]] of a grid.

    Returns the frame states of all rows at every grid time, shape
    (times, rows, dim).  Kicks sit at the sub-step midpoints.  The half
    drifts that close one sub-step and open the next are fused, so a step
    costs len(_WEIGHTS) diagonal kicks and dense drifts for all rows
    together, each drift one real product on the rows' float view.  The
    drift blocks of every distinct step length of the run are built in one
    call before it starts, and each interval looks its own up by index.  An
    interval's opening half drift reads the state stored at its start, and
    its closing one writes the state at its end, in place.  The kick
    schedule and its field phases are built about _CHUNK sub-steps at a
    time, consumed in step order across intervals, so no array grows with
    the step count.
    """
    h = np.diff(times) / n
    c = np.asarray(_WEIGHTS)
    fuse = 0.5 * (c + np.roll(c, -1))
    mid = np.cumsum(c) - 0.5 * c  # sub-step midpoints, in steps
    ends = np.cumsum(n)
    chunk = max(1, _CHUNK // c.size)
    sub = max(1, _PHASE_ELEMS // (c.size * len(fields) * frame.w.size))

    def phases():
        for a in range(0, ends[-1], chunk):
            # run-wide step k is step k - (ends[i] - n[i]) of interval i
            k = np.arange(a, min(a + chunk, ends[-1]))
            i = np.searchsorted(ends, k, side="right")
            hs = h[i][:, None]
            starts = times[i] + h[i] * (k - (ends[i] - n[i]))
            ts = starts[:, None] + hs * mid
            arg = np.stack([field_value(f, ts) for f in fields], axis=-1)
            arg *= (hs * c)[:, :, None]
            for b in range(0, arg.shape[0], sub):
                yield frame.kicks(arg[b:b + sub]).reshape(-1, len(fields), frame.w.size)

    # one kick phase per sub-step, in step order across intervals
    stream = chain.from_iterable(phases())
    # per distinct step length, built in one call: the opening and closing
    # half drifts, then the fused ones; neighbouring intervals alternate
    # among a few lengths.  The weights are palindromic, so the 11 drifts of
    # a step take 7 distinct lengths, each built once
    taus, slot = np.unique(np.concatenate([[0.5 * c[0], -0.5 * c[0]], fuse]),
                           return_inverse=True)
    lengths, which = np.unique(h, return_inverse=True)
    built = frame.drift(np.outer(lengths, taus).ravel()).reshape(lengths.size, taus.size,
                                                                 2 * frame.w.size, -1)
    blocks = [(b[slot[0]], b[slot[1]], list(b[slot[2:]])) for b in built]

    out = np.empty((times.size,) + y0.shape, dtype=complex)
    out[0] = y0
    y, kicked = np.empty_like(y0), np.empty_like(y0)
    # a few-row sub-step is call overhead: bound ndarray.dot skips np.dot's
    # dispatcher, positional outs skip keyword parsing, and the float views
    # reach BLAS's small real product instead of the complex one
    multiply, kf_dot, yf = np.multiply, kicked.view(float).dot, y.view(float)
    outf = out.view(float)
    for i, k in enumerate(which):
        opening, closing, fused = blocks[k]
        outf[i].dot(opening, yf)
        for kick, block in zip(islice(stream, n[i] * c.size), cycle(fused)):
            multiply(y, kick, kicked)
            kf_dot(block, yf)
        # the last fused drift overshoots the closing half drift by c[0] h / 2
        yf.dot(closing, outf[i + 1])
    return out


def propagate_batch(h0, v, fields, states0, times, tol=1e-8):
    """Propagate each initial state through its own field; one result per row.

    h0 and v are the (dim, dim) drift and drive arrays, H(t) = h0 - E(t) v.
    Row r starts from states0[r], its amplitudes at times[0], and feels
    fields[r].  The fields must share their window, and `times` must lie in
    it (otherwise ValueError); the rows run together, and each run after the
    first is compared with the one before it.  Every run steps over one run
    grid (see _run_grid), the sample times split at breakpoints by the
    broadest envelope tau0 of the batch, whose step density is at least
    every row's.  A row's step error is the larger of its Richardson
    estimate (the difference of the two runs at the sample times over
    r^order - 1, with r the smallest ratio of their step counts over the run
    intervals, per-sample 2-norm) and its norm drift
    max_k | |psi_k| - |psi_0| |, a lower bound on its error.  The row is
    certified, and leaves, once that reaches `tol` (in the pilot pair,
    tol / _PILOT_MARGIN).  The first run steps each run interval by its
    envelope weight over the finest pilot step any of the fields needs, so
    its local step at the envelope's peak is that pilot step.  Every later
    run multiplies the step count of every run interval by a ratio, rounded
    up: 2 after the first, then (e / (_SAFETY tol))^(1/order), the ratio
    predicted to land at _SAFETY tol from e, the worst estimate of the rows
    left.

    Each Trajectory holds the sample times, the row's states at them, shape
    (times, dim), and a meta dict: the longest step of its last run ("dt"),
    the runs after the first ("halvings"), the kernel steps of each run
    ("steps") and the step error ("step_error").  Returns a list holding,
    per row, its Trajectory or its NotConverged error: a row fails once its
    norm drift alone exceeds `tol`, or when _MAX_HALVINGS runs after the
    first are spent.  A run that would take more than _MAX_STEPS steps
    raises ConfigError.
    """
    fields, psi0 = list(fields), np.array(states0, dtype=complex)
    if psi0.ndim != 2 or not fields or len(fields) != len(psi0):
        raise ValueError("need one field per initial state, and at least one")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1d array, length >= 2")
    windows = {(f.t_start, f.t_end) for f in fields}
    if len(windows) != 1:
        raise ValueError("the fields of one batch must share their window")
    (window,) = windows
    if times[0] < window[0] or times[-1] > window[1]:
        raise ValueError(f"times [{times[0]:g}, {times[-1]:g}] reach outside the field "
                         f"window [{window[0]:g}, {window[1]:g}]")

    # complex copies: real ones would go to the real eigensolvers, whose
    # eigenvectors differ in their last bits
    frame = _SplitFrame(np.asarray(h0, dtype=complex), np.asarray(v, dtype=complex))
    y0 = psi0 @ frame.u.conj()
    dt0 = min(_default_dt(frame, f) for f in fields)
    grid, samples, weights = _run_grid(times, max(f.tau0 for f in fields))
    with np.errstate(divide="ignore", over="ignore"):
        n_prev = _step_counts(weights / dt0)
    results = [None] * len(fields)
    rows = np.arange(len(fields))
    prev = _run_sampled(frame, fields, y0, grid, n_prev)[samples]
    steps = [int(n_prev.sum())]
    for k in range(1, _MAX_HALVINGS + 1):
        # 2 after the pilot, then the ratio predicted to land at _SAFETY tol;
        # either is above 1, so every interval is refined
        ratio = 2.0 if k == 1 else (float(np.max(err)) / (_SAFETY * tol)) ** (1.0 / _ORDER)
        n_cur = _step_counts(ratio * n_prev)
        cur = _run_sampled(frame, [fields[r] for r in rows], y0[rows], grid, n_cur)[samples]
        longest = float(np.max(np.diff(grid) / n_cur))
        steps.append(int(n_cur.sum()))
        states = [cur[:, j] @ frame.u.T for j in range(rows.size)]
        norms = [np.linalg.norm(s, axis=1) for s in states]
        drift = np.array([np.max(np.abs(m - m[0])) for m in norms])
        # every interval takes more steps in this run, so the smallest ratio
        # r of the step counts is above 1 and the difference sees each one
        r = float(np.min(n_cur / n_prev))
        rich = np.max(np.linalg.norm(cur - prev, axis=2), axis=0) / (r ** _ORDER - 1.0)
        err = np.maximum(rich, drift)
        done = err <= (tol / _PILOT_MARGIN if k == 1 else tol)
        for j in np.flatnonzero(done):
            results[rows[j]] = Trajectory(times, states[j],
                                          {"dt": longest, "halvings": k,
                                           "steps": list(steps),
                                           "step_error": float(err[j])})
        for j in np.flatnonzero(drift > tol):
            results[rows[j]] = NotConverged(
                f"norm drift {drift[j]:.3e} exceeds tol {tol:g} after {steps[-1]} steps: "
                f"roundoff rules out a certified error this small")
        keep = ~done & (drift <= tol)
        rows, err, prev, n_prev = rows[keep], err[keep], cur[:, keep], n_cur
        if not rows.size:
            return results
    for r, e in zip(rows, err):
        results[r] = NotConverged(
            f"step control stalled at estimated error {e:.3e}, tol {tol:g}, after "
            f"{_MAX_HALVINGS} runs past the first (dt = {longest:g})"
        )
    return results


def propagate(h0, v, fld, state0, times, tol=1e-8):
    """Propagate the amplitudes state0 through the field, sampling at `times`.

    h0 and v are the drift and drive arrays; state0 holds the amplitudes at
    times[0].  `times` must be strictly increasing and lie in the field
    window.  The result is certified as in propagate_batch: a pilot pair
    predicts the step, and the step error of the returned solution
    (per-sample 2-norm, at least its norm drift) must reach `tol`, or
    NotConverged is raised.  This is the one-row call of propagate_batch.
    """
    (result,) = propagate_batch(h0, v, [fld], [state0], times, tol=tol)
    if isinstance(result, NotConverged):
        raise result
    return result

