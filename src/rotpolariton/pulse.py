"""Drive fields and their spectral pulse areas.

Fields are real, linearly polarized along the rotor axis, and vanish outside
an explicit [t_start, t_end] window that must cover at least +-6 envelope
widths so edge truncation stays below 1e-7 of the peak.

The quantity that controls population transfer on a dressed transition at
frequency w with transition dipole d is the complex spectral area

    Theta = d * integral E(t') exp(-i w t') dt'

over the whole pulse.  Every field is one Gaussian envelope under cosine
carriers, so Theta is a sum of Gaussians in w, evaluated in closed form.
"""

from dataclasses import dataclass, asdict
from functools import reduce

import numpy as np

__all__ = [
    "CompositePulse",
    "gaussian_for_area",
    "composite_for_area",
    "field_value",
    "carrier_ceiling",
    "spectral_area",
    "pulse_area_ground",
    "pulse_area_doublet",
    "PulseAreaSet",
    "aggregate_areas",
    "field_to_dict",
]

_MIN_WINDOW_WIDTHS = 6.0
# factories pad further: the tail clipped at 7 widths is ~1e-11 of the area
_PAD_WIDTHS = 7.0


@dataclass(frozen=True)
class CompositePulse:
    """The one field type: a Gaussian envelope under (omega, phi) carriers.

    E(t) = e0 exp(-t^2 / 2 tau0^2) sum_k cos(omega_k t + phi_k) inside the
    window; a single kick is the one-carrier case.
    """

    e0: float
    tau0: float
    components: tuple
    t_start: float
    t_end: float

    def __post_init__(self):
        comps = tuple((float(w), float(p)) for (w, p) in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("composite pulse needs at least one carrier")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        w = _MIN_WINDOW_WIDTHS * self.tau0
        if self.t_start > -w or self.t_end < w:
            raise ValueError(f"window must cover +-{_MIN_WINDOW_WIDTHS:g} tau0 around the peak")


def gaussian_for_area(params, area, tau0, omega0, phi0=0.0):
    """One-carrier pulse whose resonant bare 0-1 area is `area` (radians).

    Peak amplitude sqrt(2/pi) * area / (mu01 * tau0).
    """
    e0 = np.sqrt(2.0 / np.pi) * area / (params.mu01 * tau0)
    return CompositePulse(e0=e0, tau0=tau0, components=((omega0, phi0),),
                          t_start=-_PAD_WIDTHS * tau0, t_end=_PAD_WIDTHS * tau0)


def composite_for_area(params, area, tau0, components):
    """Multi-carrier pulse whose per-carrier ground-doublet area is `area`.

    Peak amplitude per carrier sqrt(2/pi) * area / (|mu01/sqrt(2)| * tau0), so
    a carrier sitting on one doublet line accumulates |Theta| = area.
    """
    mu0 = params.mu01 / np.sqrt(2.0)
    e0 = np.sqrt(2.0 / np.pi) * area / (mu0 * tau0)
    return CompositePulse(e0=e0, tau0=tau0, components=tuple(components),
                          t_start=-_PAD_WIDTHS * tau0, t_end=_PAD_WIDTHS * tau0)


def field_value(spec, t):
    """Evaluate the field at scalar or array times; zero outside the window."""
    t = np.asarray(t, dtype=float)
    inside = (t >= spec.t_start) & (t <= spec.t_end)
    env = spec.e0 * np.exp(-0.5 * (t / spec.tau0) ** 2)
    carriers = reduce(np.add, (np.cos(w * t + p) for w, p in spec.components))
    return np.where(inside, env * carriers, 0.0)


def carrier_ceiling(spec):
    """Upper bound on the field's oscillation frequency, for step control."""
    return max(abs(w) for w, _ in spec.components)


def spectral_area(spec, omega, dipole=1.0):
    """dipole * integral E(t') exp(-i omega t') dt', in closed form.

    Each carrier contributes two Gaussians, at omega = +omega_k and -omega_k:

        dipole e0 tau0 sqrt(pi/2) sum_k [exp(i phi_k - tau0^2 (omega - omega_k)^2 / 2)
                                         + exp(-i phi_k - tau0^2 (omega + omega_k)^2 / 2)]

    This is the integral over all times.  The field window clips at most
    erfc(6/sqrt(2)) ~ 2e-9 of a carrier's resonant area at the 6-width
    minimum, and ~3e-12 at the factories' 7 widths.
    """
    w, phi = np.array(spec.components).T
    x, y = spec.tau0 * (omega - w), spec.tau0 * (omega + w)
    terms = np.exp(1j * phi - 0.5 * x * x) + np.exp(-1j * phi - 0.5 * y * y)
    return dipole * spec.e0 * spec.tau0 * np.sqrt(0.5 * np.pi) * complex(np.sum(terms))


def pulse_area_ground(spec, omega_pm, mu0):
    """Areas on the |0;0> -> |+;0>, |-;0> transitions.

    omega_pm is (w_up, w_lo); mu0 is the magnitude mu01/sqrt(2) and the
    dressed sign convention (+ for the upper state, - for the lower) is
    applied here.
    """
    w_up, w_lo = omega_pm
    up = spectral_area(spec, w_up, dipole=+abs(mu0))
    lo = spectral_area(spec, w_lo, dipole=-abs(mu0))
    return up, lo


def pulse_area_doublet(spec, omega_pm0, omega_pm1, mu1):
    """Areas on the four |s;0> -> |l;1> transitions, keyed by (s, l) in {+1,-1}.

    mu1 is the magnitude mu01/2; the sign follows the upper doublet state l.
    The integrand analysis frequency is the transition frequency w_{l,1} - w_{s,0}.
    """
    w = {+1: omega_pm0[0], -1: omega_pm0[1]}
    w1 = {+1: omega_pm1[0], -1: omega_pm1[1]}
    out = {}
    for s in (+1, -1):
        for l in (+1, -1):
            out[(s, l)] = spectral_area(spec, w1[l] - w[s], dipole=l * abs(mu1))
    return out


@dataclass(frozen=True)
class PulseAreaSet:
    """Ground-doublet and doublet-doublet areas with their aggregates."""

    theta_up0: complex
    theta_lo0: complex
    doublet: dict
    theta0: float
    theta1: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "doublet", dict(self.doublet))


def aggregate_areas(theta_up0, theta_lo0, doublet=None):
    """Combine individual areas into the rotation-angle aggregates.

    theta0 = sqrt(|Theta_{+,0}|^2 + |Theta_{-,0}|^2), theta1 likewise over the
    four doublet legs, theta = sqrt(theta0^2 + theta1^2).
    """
    doublet = dict(doublet or {})
    theta0 = float(np.hypot(abs(theta_up0), abs(theta_lo0)))
    theta1 = float(np.sqrt(sum(abs(x) ** 2 for x in doublet.values())))
    theta = float(np.hypot(theta0, theta1))
    return PulseAreaSet(theta_up0=complex(theta_up0), theta_lo0=complex(theta_lo0),
                        doublet=doublet, theta0=theta0, theta1=theta1, theta=theta)


def field_to_dict(spec):
    """JSON/YAML-ready representation of a field."""
    return {**asdict(spec), "components": [list(c) for c in spec.components],
            "kind": "composite"}
