"""Shared fixtures and independent oracles for the test suite.

Everything runs in rotational-constant units (B = 1), so the revival period
is pi and the 0-1 transition sits at 2.  The coupling is 0.2 B = 0.1 omega01
throughout, which puts the ground doublet at 1.8 and 2.2.  Heavy propagation
runs are session-scoped and reused by the unit tests and the acceptance
suite alike.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest

import rotpolariton as rp

B = 1.0
G = 0.2 * B                      # coupling, 0.1 omega01
TAU = np.pi / B                  # bare revival period
W01 = 2.0 * B
SQRT3INV = 1.0 / np.sqrt(3.0)

# bandwidths for the analytic-vs-exact sweep, in units of g
SWEEP_BW = (0.1, 0.25, 0.5, 0.75, 1.0)


def unit_params(**over):
    kw = dict(rot_const=B, dipole=1.0, coupling=G, j_max=8, n_max=4)
    kw.update(over)
    return rp.SystemParams(**kw)


def ocs_params(coupling_ratio=0.1, j_max=8, n_max=4, cavity=True):
    """OCS molecule in a resonant cavity; coupling_ratio is g / omega01."""
    b = 0.20286 * rp.HARTREE_PER_CM1
    mu = 0.715 * rp.AU_PER_DEBYE
    g = coupling_ratio * (2.0 * b) if cavity else 0.0
    return rp.SystemParams(
        rot_const=b,
        dipole=mu,
        coupling=g,
        j_max=j_max,
        n_max=n_max if cavity else 0,
    )


# ------------------------------------------------------------- oracles
#
# Three oracles that share no code with the package internals: cos theta
# matrix elements from Gauss-Legendre quadrature over normalized Legendre
# polynomials, spectral areas by quadrature of the field itself, and the
# Schrodinger equation solved by scipy's DOP853.

def cos_matrix_quadrature(j_max):
    """<j' 0|cos theta|j 0> by quadrature, no recursion relations."""
    x, w = np.polynomial.legendre.leggauss(2 * j_max + 4)
    # orthonormal m = 0 polar functions on [-1, 1]: sqrt((2j+1)/2) P_j(x)
    pj = np.stack([np.sqrt((2 * j + 1) / 2.0)
                   * np.polynomial.legendre.Legendre.basis(j)(x)
                   for j in range(j_max + 1)])
    return np.einsum("ik,k,jk->ij", pj, w * x, pj)


def area_by_quadrature(spec, omega, dipole=1.0):
    """dipole * integral of field_value(t) exp(-i omega t) over the field window.

    Fixed 20-point Gauss-Legendre panels, each no wider than a quarter period
    of the fastest oscillation in the integrand or a quarter envelope width,
    so the sum is exact to roundoff for these smooth integrands.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    fastest = abs(omega) + max(abs(c) for c, _ in spec.components)
    width = 0.25 * min(2.0 * np.pi / fastest, spec.tau0)
    n = int(np.ceil((spec.t_end - spec.t_start) / width))
    edges = np.linspace(spec.t_start, spec.t_end, n + 1)
    half = 0.5 * (edges[1] - edges[0])
    t = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    vals = rp.field_value(spec, t) * np.exp(-1j * omega * t)
    return dipole * half * np.sum(vals @ w)


def schrodinger_dop853(h0, v, fld, psi0, times):
    """States of dy/dt = -i (h0 - E(t) v) y at `times`, by scipy's DOP853.

    E(t) = e0 exp(-t^2 / 2 tau0^2) sum_k cos(omega_k t + phi_k) inside the
    field window, written out here from the pulse's parameters.  An
    eighth-order Runge-Kutta method with its own step control (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.10), so it shares no step,
    frame or schedule with the split-step kernel it checks.
    """
    from scipy.integrate import solve_ivp

    h0, v = np.asarray(h0, dtype=complex), np.asarray(v, dtype=complex)
    w, phi = np.array(fld.components).T

    def rhs(t, y):
        e = 0.0
        if fld.t_start <= t <= fld.t_end:
            e = fld.e0 * np.exp(-0.5 * (t / fld.tau0) ** 2) * np.cos(w * t + phi).sum()
        return -1j * (h0 @ y - e * (v @ y))

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (times[0], times[-1]), np.asarray(psi0, dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=times)
    assert sol.success, sol.message
    return sol.y.T


def orientation_dense(amplitudes, energies, m, times, t0):
    """Re(psi^H m psi) at each time, psi(t) = amplitudes exp(-i energies (t - t0)).

    The dense formula, one phase vector and one quadratic form per sample:
    the reference for the transition-sum trace.
    """
    psi = np.exp(-1j * np.outer(np.asarray(times) - t0, energies)) * amplitudes
    return np.einsum("ti,ij,tj->t", psi.conj(), m, psi).real


# ------------------------------------------------------------ dressed model

def dressed_operators(params):
    """(diag E, mu cos theta, model) of the dressed model.

    The drift and drive a coupled kick propagates, written from the model's
    energies and cos theta.
    """
    model = rp.build_model(params)
    return np.diag(model.energies), params.dipole * model.cos, model


# ------------------------------------------------------ cross-frame reference
#
# The product (rotor x photon) basis, its full Hamiltonian with the
# counter-rotating coupling, and its bridge to the dressed states.  The
# package propagates the dressed basis or the rotor alone, never this frame;
# the cross-frame checks compare the two through these helpers, and the
# bridge's transform is the reference for the closed-form dressed cos theta.
#
# Conventions: product basis states are (rotor J, photon n) ordered
# lexicographically in (n, J), i.e. all J for n = 0, then n = 1, ...  The
# full-Hamiltonian coupling prefactor is g / mu01, so the cavity sees the
# complete dipole ladder, not just the lowest rung.

def _photon_number(n_max):
    return np.diag(np.arange(n_max + 1, dtype=float))


def _photon_x(n_max):
    """a + a^dagger on the truncated photon ladder."""
    m = np.zeros((n_max + 1, n_max + 1))
    n = np.arange(n_max)
    m[n, n + 1] = np.sqrt(n + 1.0)
    m[n + 1, n] = np.sqrt(n + 1.0)
    return m


def build_full_hamiltonian(params):
    """Drift and drive operators in the product basis.

    Returns (h0, v) where

        h0 = B J(J+1) + w_c a^dag a - (g / mu01) (mu cos theta)(a + a^dag)
        v  = (mu cos theta) x 1

    and the total Hamiltonian under a field E(t) is h0 - E(t) v.  The
    light-matter term keeps both rotating and counter-rotating parts.
    """
    jdim = params.j_max + 1
    ndim = params.n_max + 1
    jvals = np.arange(jdim, dtype=float)
    rotor_h = np.diag(params.rot_const * jvals * (jvals + 1.0))
    mucos = params.dipole * rp.cos_theta_elements(params.j_max)

    h0 = np.kron(np.eye(ndim), rotor_h) + np.kron(params.omega01 * _photon_number(params.n_max), np.eye(jdim))
    if params.coupling != 0.0:
        lam = params.coupling / params.mu01
        h0 = h0 - lam * np.kron(_photon_x(params.n_max), mucos)
    v = np.kron(np.eye(ndim), mucos)
    return h0, v


@dataclass(frozen=True)
class ProductBasis:
    """Rotor x photon basis, index = n * (j_max + 1) + j."""

    j_max: int
    n_max: int

    @cached_property
    def states(self):
        return tuple((j, n) for n in range(self.n_max + 1) for j in range(self.j_max + 1))

    @property
    def dim(self):
        return (self.j_max + 1) * (self.n_max + 1)

    def index(self, j, n):
        if not (0 <= j <= self.j_max and 0 <= n <= self.n_max):
            raise ValueError(f"state (j={j}, n={n}) outside basis")
        return n * (self.j_max + 1) + j


def build_product_basis(j_max, n_max):
    return ProductBasis(j_max=j_max, n_max=n_max)


def dressed_transform(params):
    """The dressed states written over the two-level rotor x photon basis.

    Rows are (j, n) with j in {0, 1}, at index 2 n + j; columns follow the
    labels of rp.build_model: |0;0> = |0, 0>, |+-;n> = (|0, n+1> +- |1, n>)
    / sqrt(2), and the edge state |1, n_max>.  Real and orthogonal.
    """
    n_max = params.n_max
    dim = 2 * (n_max + 1)
    s = 1.0 / np.sqrt(2.0)
    u = np.zeros((dim, dim))
    u[0, 0] = 1.0
    for n in range(n_max):
        u[2 * (n + 1), 1 + 2 * n:3 + 2 * n] = s
        u[2 * n + 1, 1 + 2 * n:3 + 2 * n] = s, -s
    u[-1, -1] = 1.0
    return u


def dressed_cos_reference(params):
    """cos theta of the dressed states, u^T (1 x cos_2) u with u the transform."""
    u = dressed_transform(params)
    cos2 = np.kron(np.eye(params.n_max + 1), rp.cos_theta_elements(1))
    return u.T @ cos2 @ u


def project_to_dressed(amplitudes, params, photon_parity=True):
    """Project product-basis amplitudes (full j_max ladder) onto dressed states.

    The full Hamiltonian carries the coupling with a minus sign while the
    dressed ladder uses the plus-sign convention; the two frames differ by the
    photon parity (-1)^n, which this projection absorbs (photon_parity=True).
    Weight in J >= 2 rotor states is dropped, so the result can have norm < 1.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    pb = build_product_basis(params.j_max, params.n_max)
    if amps.shape[-1] != pb.dim:
        raise ValueError("amplitude length does not match the product basis")
    two = np.zeros(amps.shape[:-1] + (2 * (params.n_max + 1),), dtype=complex)
    for n in range(params.n_max + 1):
        for j in (0, 1):
            phase = (-1.0) ** n if photon_parity else 1.0
            two[..., 2 * n + j] = phase * amps[..., pb.index(j, n)]
    return two @ dressed_transform(params)


def embed_dressed_vectors(params, photon_parity=True):
    """Dressed-state column vectors written over the full product basis.

    Columns follow the labels of rp.build_model; the photon-parity gauge
    matches project_to_dressed, so conj(emb).T @ psi reproduces that
    projection.
    """
    u = dressed_transform(params)
    pb = build_product_basis(params.j_max, params.n_max)
    emb = np.zeros((pb.dim, u.shape[1]))
    for n in range(params.n_max + 1):
        phase = (-1.0) ** n if photon_parity else 1.0
        for j in (0, 1):
            emb[pb.index(j, n), :] = phase * u[2 * n + j, :]
    return emb


def adiabatic_dressed_vectors(params):
    """Exact eigenvectors of the static full Hamiltonian, one per dressed label.

    Each column is the eigenvector of h0 (counter-rotating coupling included)
    with the largest overlap onto the corresponding dressed state, with its
    phase aligned to that overlap.  Returns (vectors, energies, model).  The
    matching must be injective; a collision means the couplings are too strong
    for the dressed labels to identify polaritons.
    """
    model = rp.build_model(params)
    h0, _ = build_full_hamiltonian(params)
    evals, evecs = np.linalg.eigh(h0)
    emb = embed_dressed_vectors(params)
    overlaps = np.abs(evecs.conj().T @ emb)
    picks = np.argmax(overlaps, axis=0)
    if len(set(picks.tolist())) != len(model.labels):
        raise ValueError("dressed-to-exact eigenvector matching is not injective")
    vectors = np.empty((evecs.shape[0], len(model.labels)), dtype=complex)
    for k, i in enumerate(picks):
        ov = np.vdot(evecs[:, i], emb[:, k])
        vectors[:, k] = evecs[:, i] * (ov / abs(ov))
    return vectors, evals[picks].copy(), model


# ------------------------------------------------------------ parameters

@pytest.fixture(scope="session")
def p_cavity():
    return unit_params()


@pytest.fixture(scope="session")
def p_bare():
    return unit_params(coupling=0.0, n_max=0)


# --------------------------------------------------------- heavy runs

@pytest.fixture(scope="session")
def bare_kick(p_bare):
    """Quarter-area kick on the uncoupled molecule, bandwidth 0.1 g."""
    fld = rp.gaussian_for_area(p_bare, rp.KICK_AREA, tau0=1.0 / (0.1 * G),
                               omega0=p_bare.omega01)
    return rp.kick_response(p_bare, fld)


@pytest.fixture(scope="session")
def cavity_kick(p_cavity):
    """Same kick with the cavity coupled: the doublet blocks the transfer."""
    fld = rp.gaussian_for_area(p_cavity, rp.KICK_AREA, tau0=1.0 / (0.1 * G),
                               omega0=p_cavity.omega01)
    return rp.kick_response(p_cavity, fld)


@pytest.fixture(scope="session")
def broadband_kick(p_cavity):
    """Broadband resonant kick (bandwidth g) with a spectroscopy-grade trace.

    The 80 tau window makes the bin width g/8, which puts both doublet
    lines (9 g and 11 g) exactly on the frequency grid.
    """
    fld = rp.gaussian_for_area(p_cavity, rp.KICK_AREA, tau0=1.0 / G,
                               omega0=p_cavity.omega01)
    return rp.kick_response(p_cavity, fld, trace_window_tau=80.0, n_trace=32768)


@pytest.fixture(scope="session")
def designed(p_cavity):
    """Two-color pulse with the upper-carrier phase solved at 0.1 g."""
    return rp.design_composite(p_cavity, bandwidth=0.1 * G)


@pytest.fixture(scope="session")
def composite_exact(p_cavity, designed):
    fld, _report = designed
    return rp.kick_response(p_cavity, fld)


@pytest.fixture(scope="session")
def magnus_sweep(p_cavity):
    """Exact vs first-order composite response as the bandwidth grows.

    Carrier phases are solved once at 0.1 g and held fixed while the
    envelope widens, so only the envelope bandwidth varies along the sweep.
    """
    bws = [b * G for b in SWEEP_BW]
    return rp.scan_composite_bandwidth(p_cavity, bws, reference_bandwidth=0.1 * G,
                                       n_trace=8192)


@pytest.fixture(scope="session")
def oracle_result(p_cavity):
    model = rp.build_model(p_cavity)
    return rp.orientation_max_oracle(model.cos, model.energies, model.labels)
