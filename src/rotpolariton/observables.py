"""Orientation traces, Fourier spectra, revival detection, and bound oracles.

The orientation signal is the expectation of cos(theta).  Post-pulse dynamics
under a diagonal drift are evaluated in closed form from a single snapshot, as
a sum of cosines over the couplings of cos(theta), so a long trace costs two
short phase tables rather than a propagation.  A trace is a TimeSeries,
whose samples sit on a uniform grid by type, so its spectrum and revival
read the stored step and never check the grid again.  The bound on
the orientation over a few dressed states is the top eigenpair of the
projected cos(theta) block, not a search.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "orientation_trace",
    "spectrum",
    "spectrum_peaks",
    "dressed_populations_phases",
    "revival_period",
    "orientation_max_oracle",
]

# the lagged correlation at which a trace counts as repeating itself
_REVIVAL_THRESHOLD = 0.999
# phases are reported relative to this dressed state
_GROUND_LABEL = "0;0"


@dataclass(frozen=True)
class TimeSeries:
    """Real scalar signal sampled at t0 + dt k, k = 0 .. len(values) - 1.

    The grid is uniform by construction, so the spectrum and the revival
    read its step `dt` as stored.  dt must be finite and positive and the
    values 1d, at least two of them (otherwise ValueError).
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need 1d values, length >= 2")
        v.setflags(write=False)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "values", v)

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.values.size)

    @property
    def window(self):
        """Time from the first sample to the last, as the difference of the two."""
        return float(self.t0 + self.dt * (self.values.size - 1) - self.t0)


def orientation_trace(amplitudes, t0, energies, cos, start, dt, n):
    """<cos theta>(t) under free evolution from one snapshot, at t = start + dt k, k < n.

    The snapshot holds the amplitudes at time t0, in the basis of `energies`
    and of the (dim, dim) matrix `cos`; it is valid once the drift is
    diagonal there (the drive is over).  With b the snapshot, m = cos theta
    and w_ij = E_i - E_j, the trace is

        sum_i m_ii |b_i|^2 + Re sum_{i<j, m_ij != 0} 2 conj(b_i) m_ij b_j exp(i w_ij (t - t0)),

    a sum over the couplings of cos theta (16 dressed, 8 bare).  With
    k = q s + r and s ~ sqrt(n), each phase is a product of two tables,
    exp(i w (t_{qs} - start)) and exp(i w (t_r - t0)), so the n samples take
    2 sqrt(n) exponentials per coupling and one matmul.  Returns the n
    samples as a TimeSeries.
    """
    times = start + dt * np.arange(n)
    b, m, energies = np.asarray(amplitudes), np.asarray(cos), np.asarray(energies, dtype=float)
    i, j = np.nonzero(np.triu(m, 1))
    coef = 2.0 * b[i].conj() * m[i, j] * b[j]
    w = energies[i] - energies[j]
    s = math.isqrt(times.size - 1) + 1
    coarse = np.exp(1j * np.outer(times[::s] - times[0], w)) * coef
    fine = np.exp(1j * np.outer(times[:s] - t0, w))
    vals = (coarse @ fine.T).real.ravel()[:times.size]
    vals += np.real(np.diag(m)) @ np.abs(b) ** 2
    return TimeSeries(start, dt, vals)


def spectrum(series):
    """One-sided magnitude spectrum dt * |rfft| of a time series; (omega, amplitude).

    The mean is subtracted first, so there is no zero-frequency line; the
    angular-frequency bins are 2 pi / (n dt) apart.
    """
    x = series.values - series.values.mean()
    amp = series.dt * np.abs(np.fft.rfft(x))
    omega = 2.0 * np.pi * np.fft.rfftfreq(x.size, d=series.dt)
    return omega, amp


def spectrum_peaks(omega, amplitude, rel_height=0.05):
    """Strict local maxima at or above rel_height * global max; (omegas, heights).

    An exact plateau has no strict maximum and is not a peak.  A kick record
    reports the peaks at the default height, lines above 5 % of the strongest.
    """
    a = amplitude
    if a.size < 3:
        return np.array([]), np.array([])
    floor = rel_height * float(np.max(a))
    mid = a[1:-1]
    idx = np.flatnonzero((mid > a[:-2]) & (mid > a[2:]) & (mid >= floor)) + 1
    return omega[idx], a[idx]


def dressed_populations_phases(amplitudes, labels, floor):
    """Per-label populations and phases relative to the ground amplitude.

    A phase is None where its amplitude is at most `floor`: the caller sets
    it from the state's certified error, below which roundoff moves a phase
    freely.  If the ground amplitude |0;0> is absent or at most `floor`, the
    raw phases are returned instead.
    """
    ref = 0.0
    if _GROUND_LABEL in labels:
        a0 = amplitudes[labels.index(_GROUND_LABEL)]
        if abs(a0) > floor:
            ref = np.angle(a0)
    out = {}
    for lab, a in zip(labels, amplitudes):
        ph = None
        if abs(a) > floor:
            ph = float(np.mod(np.angle(a) - ref + np.pi, 2 * np.pi) - np.pi)
        out[lab] = {"population": float(abs(a) ** 2), "phase": ph}
    return out


def _lagged_pearson(x, count):
    """Pearson correlation of x[:-l] with x[l:] for the lags l < count, via FFT."""
    n = x.size
    m = np.arange(n, n - count, -1, dtype=float)  # overlap length per lag
    # cross sums by autocorrelation
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    fx = np.fft.rfft(x, nfft)
    sxy = np.fft.irfft(fx * fx.conj(), nfft)[:count]
    cs = np.concatenate([[0.0], np.cumsum(x)])
    cs2 = np.concatenate([[0.0], np.cumsum(x * x)])
    # prefix x[:n-l] and suffix x[l:] moments
    lags = np.arange(count)
    s1 = cs[n - lags]
    s1sq = cs2[n - lags]
    s2 = cs[n] - cs[lags]
    s2sq = cs2[n] - cs2[lags]
    cov = sxy - s1 * s2 / m
    var1 = s1sq - s1 * s1 / m
    var2 = s2sq - s2 * s2 / m
    denom = np.sqrt(np.maximum(var1, 0.0) * np.maximum(var2, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, cov / np.maximum(denom, 1e-300), 0.0)
    return np.clip(r, -1.0, 1.0)


def _vertex(values, i, band=0.0):
    """Offset, in samples, of the parabola vertex through samples i - 1, i, i + 1.

    0 at either end of the series, where the three samples are not concave,
    or where an error of `band` in them could move the vertex by more than
    a sample.
    """
    if not 0 < i < values.size - 1:
        return 0.0
    vm1, v0, vp1 = values[i - 1], values[i], values[i + 1]
    den = vm1 - 2.0 * v0 + vp1
    # the vertex moves by up to 2 band / |den| samples
    return 0.5 * (vm1 - vp1) / den if den < 0 and 2.0 * band <= -den else 0.0


def revival_period(series, min_lag=0.0):
    """Time shift after which the signal repeats.

    Computes the lag-by-lag Pearson correlation of the series with its shifted
    self, skips zero lag and the lags below min_lag, and returns the best lag
    inside the first contiguous run with correlation >= 0.999, refined by
    a parabola through the three samples around the maximum.  Returns None
    when the signal is constant, never decorrelates or never recurs.
    """
    x = series.values - series.values.mean()
    if float(np.max(np.abs(x))) == 0.0:
        return None
    dt = series.dt
    n = x.size
    max_lag = (2 * n) // 3  # keep at least a third of the samples overlapping
    # the search reads lags below max_lag, and the vertex one lag beyond
    r = _lagged_pearson(x, max_lag + 1)
    start = max(1, int(np.ceil(min_lag / dt)))
    below = np.nonzero(r[start:max_lag] < _REVIVAL_THRESHOLD)[0]
    if below.size == 0:
        return None
    lo = start + below[0]
    above = np.nonzero(r[lo:max_lag] >= _REVIVAL_THRESHOLD)[0]
    if above.size == 0:
        return None
    run_start = lo + above[0]
    run_end = run_start
    while run_end + 1 < max_lag and r[run_end + 1] >= _REVIVAL_THRESHOLD:
        run_end += 1
    seg = r[run_start:run_end + 1]
    m = run_start + int(np.argmax(seg))
    return float((m + _vertex(r, m)) * dt)


def _float_gcd(values, rtol=1e-9):
    """Approximate positive gcd of floats; 0 when they are incommensurate."""
    vals = [abs(v) for v in values if abs(v) > 0]
    if not vals:
        return 0.0
    tol = rtol * max(vals)
    g = vals[0]
    for v in vals[1:]:
        a, b = max(g, v), min(g, v)
        while b > tol:
            a, b = b, a % b
        g = a
        if g < tol:
            return 0.0
    return g


def orientation_max_oracle(cos_op, energies, labels, states=("0;0", "+;0", "-;0")):
    """Largest <cos theta> over superpositions of a few states, in closed form.

    By the Rayleigh quotient the bound is the top eigenvalue of cos theta
    projected on `states`, attained by its eigenvector; phases are taken
    relative to the first state.  That state is the one at time 0, so the
    bound recurs every common period of the restricted energies.  Returns a
    dict with keys max, populations, phases, time, period, states.
    """
    labels = tuple(labels)
    idx = [labels.index(s) for s in states]
    if len(idx) < 2:
        raise ValueError("the oracle needs a subspace of at least two states")
    # a complex copy: the real eigensolver's eigenvectors differ in their last bits
    m = np.asarray(cos_op, dtype=complex)
    vals, vecs = np.linalg.eigh(m[np.ix_(idx, idx)])
    c = vecs[:, -1] * np.exp(-1j * np.angle(vecs[0, -1]))
    en = np.asarray(energies, dtype=float)[idx]
    dE = en - en[0]
    g = _float_gcd(dE[1:])
    t_period = 2.0 * np.pi / g if g > 0 else 2.0 * np.pi / max(np.min(np.abs(dE[dE != 0])), 1e-300)
    return {
        "max": float(vals[-1]),
        "populations": tuple(float(p) for p in np.abs(c) ** 2),
        "phases": tuple(float(p) for p in np.mod(np.angle(c[1:]), 2.0 * np.pi)),
        "time": 0.0,
        "period": float(t_period),
        "states": tuple(states),
    }
