"""System definition: units, parameters, and the model of a run.

A single polar linear molecule (rigid rotor, M = 0 manifold) couples to one
cavity mode that sits on its 0-1 rotational line, w_c = omega01 = 2B, by
construction.  Everything internal runs in Hartree atomic units with
hbar = 1, so energies double as angular frequencies.  Inputs are accepted in
wavenumbers (rotational constant) and Debye (permanent dipole).

A run has one of two models, each described by its energies and cos theta
(build_model picks it); the drive is mu cos theta in both.  Without
coupling the rotor is alone: energies B J(J+1) on J = 0 .. j_max.  With it,
the run uses the resonant Jaynes-Cummings ladder in its dressed basis:

* the light-matter coupling strength ``g`` is the vacuum Rabi element on the
  0-1 line.
* dressed (polariton) doublets are the symmetric/antisymmetric combinations
  (|J=0, n+1> +- |J=1, n>)/sqrt(2) with energies w_c (n+1) +- g sqrt(n+1)
  above the dressed ground state |0;0> = |J=0, n=0>.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, UnknownUnit

__all__ = [
    "HARTREE_PER_CM1",
    "AU_PER_DEBYE",
    "convert_units",
    "SystemParams",
    "OperatorMatrix",
    "operator_matrix",
    "Model",
    "cos_theta_elements",
    "build_model",
    "doublet_energies",
    "mu_tilde_ground",
    "mu_tilde_doublet",
]

# CODATA: 1 Hartree = 219474.6313632 cm^-1, 1 e*a0 = 2.5417464519 Debye.
HARTREE_PER_CM1 = 1.0 / 219474.6313632
AU_PER_DEBYE = 1.0 / 2.5417464519

# unit name -> (dimension, factor to atomic units)
_UNITS = {
    "cm-1": ("energy", HARTREE_PER_CM1),
    "au": ("energy", 1.0),
    "debye": ("dipole", AU_PER_DEBYE),
    "au-dipole": ("dipole", 1.0),
}


def convert_units(value, from_unit, to_unit):
    """Convert a scalar between supported units of the same dimension.

    Supported names: 'cm-1' and 'au' for energy/angular frequency,
    'debye' and 'au-dipole' for dipole moments.  Raises UnknownUnit for
    anything else, ValueError when the dimensions do not match.
    """
    try:
        dim_from, fac_from = _UNITS[from_unit]
    except KeyError:
        raise UnknownUnit(f"unknown unit {from_unit!r}") from None
    try:
        dim_to, fac_to = _UNITS[to_unit]
    except KeyError:
        raise UnknownUnit(f"unknown unit {to_unit!r}") from None
    if dim_from != dim_to:
        raise ValueError(f"cannot convert {from_unit!r} ({dim_from}) to {to_unit!r} ({dim_to})")
    return value * fac_from / fac_to


@dataclass(frozen=True)
class SystemParams:
    """Molecule plus cavity parameters, all in atomic units.

    The cavity mode sits on the 0-1 line, w_c = omega01, so it has no
    frequency of its own.

    rot_const  rotational constant B
    dipole     permanent dipole mu
    coupling   vacuum Rabi coupling g on the 0-1 line; 0 leaves the rotor alone
    j_max      rotor truncation (inclusive)
    n_max      photon truncation (inclusive) of the dressed ladder; 0 without
               coupling
    """

    rot_const: float
    dipole: float
    coupling: float
    j_max: int = 8
    n_max: int = 4

    def __post_init__(self):
        if self.rot_const <= 0 or self.dipole <= 0:
            raise ValueError("rot_const and dipole must be positive")
        if self.coupling < 0:
            raise ValueError("coupling must be nonnegative")
        if self.j_max < 1 or self.n_max < 0:
            raise ValueError("need j_max >= 1 and n_max >= 0")

    @property
    def omega01(self):
        """Bare 0-1 rotational transition frequency, 2B."""
        return 2.0 * self.rot_const

    @property
    def mu01(self):
        """0-1 dipole matrix element, mu/sqrt(3)."""
        return self.dipole / np.sqrt(3.0)

    @property
    def revival_time(self):
        """Bare-molecule orientation period pi/B."""
        return np.pi / self.rot_const


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator with a basis tag so mismatched algebra fails loudly."""

    matrix: np.ndarray
    basis: str

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("OperatorMatrix must be square")
        m = np.array(m, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]


def operator_matrix(op, basis=None, dim=None):
    """The complex matrix of an OperatorMatrix or a bare array, checked.

    A tagged operator must be in `basis` and the matrix must be dim x dim,
    wherever these are given; a mismatch raises BasisMismatch.  Bare arrays
    carry no tag, so only their shape is checked.
    """
    if isinstance(op, OperatorMatrix):
        if basis is not None and op.basis != basis:
            raise BasisMismatch(f"operator in basis {op.basis!r}, expected {basis!r}")
        m = op.matrix
    else:
        m = np.asarray(op, dtype=complex)
    if dim is not None and m.shape != (dim, dim):
        raise BasisMismatch("operator and state dimensions disagree")
    return m


def cos_theta_elements(j_max):
    """cos(theta) in the M = 0 rotor basis, truncated at j_max.

    Only |dJ| = 1 elements survive; <J|cos|J+1> = (J+1)/sqrt((2J+1)(2J+3)).
    """
    n = j_max + 1
    m = np.zeros((n, n))
    j = np.arange(j_max)
    off = (j + 1) / np.sqrt((2 * j + 1) * (2 * j + 3))
    m[j, j + 1] = off
    m[j + 1, j] = off
    return OperatorMatrix(m, basis="rotor")


def doublet_energies(params, n):
    """Energies of the n-th polariton doublet (upper, lower) above |0;0>."""
    wc, g = params.omega01, params.coupling
    return (wc * (n + 1) + g * np.sqrt(n + 1.0), wc * (n + 1) - g * np.sqrt(n + 1.0))


def mu_tilde_ground(params):
    """|transition dipole| between |0;0> and either |+-;0> state."""
    return params.mu01 / np.sqrt(2.0)


def mu_tilde_doublet(params):
    """|transition dipole| between adjacent doublets; sign follows the upper state."""
    return params.mu01 / 2.0


@dataclass(frozen=True)
class Model:
    """The model a run propagates: its basis labels, energies and cos theta.

    The drift is diag(energies) and the drive mu cos theta, both in the
    basis tag of `cos`.
    """

    labels: tuple
    energies: np.ndarray
    cos: OperatorMatrix

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)


def build_model(params):
    """The run's model: the resonant dressed ladder with coupling, else the rotor.

    Without coupling the rotor is alone, with energies B J(J+1) on
    J = 0 .. j_max and cos theta from cos_theta_elements; it needs n_max = 0,
    otherwise ValueError.  With coupling the states are |0;0>, then
    (+;n, -;n) for n = 0 .. n_max-1, then the |J=1, n_max> edge state the
    photon truncation leaves unpaired; it needs n_max >= 1.  With
    c = <0|cos|1> and s = 1/sqrt(2), cos theta couples |0;0> to |+-;0> by
    +-c s, each |+-;n> to |l;n+1> by l s c s, and |+-;n_max-1> to the edge
    by c s.
    """
    n_max = params.n_max
    if params.coupling == 0:
        if n_max > 0:
            raise ValueError(f"an uncoupled run is the rotor alone and needs n_max = 0, "
                             f"got {n_max}")
        j = np.arange(params.j_max + 1, dtype=float)
        return Model(tuple(f"J{k},n0" for k in range(params.j_max + 1)),
                     params.rot_const * j * (j + 1.0), cos_theta_elements(params.j_max))
    if n_max < 1:
        raise ValueError("dressed basis needs n_max >= 1")
    labels = ["0;0"]
    energies = [0.0]
    for n in range(n_max):
        labels += [f"+;{n}", f"-;{n}"]
        energies += doublet_energies(params, n)
    labels.append("edge")
    energies.append(params.omega01 + n_max * params.omega01)

    c = cos_theta_elements(1).matrix.real[0, 1]
    s = 1.0 / np.sqrt(2.0)
    m = np.zeros((len(labels), len(labels)))
    m[0, 1:3] = c * s, -(c * s)
    # |+-;n> sits at 1 + 2n, |+-;n+1> at 3 + 2n; the edge state is last
    for n in range(n_max - 1):
        m[1 + 2 * n:3 + 2 * n, 3 + 2 * n:5 + 2 * n] = s * c * s, -(s * c * s)
    m[-3:-1, -1] = c * s
    return Model(tuple(labels), energies, OperatorMatrix(m + m.T, basis="dressed"))
