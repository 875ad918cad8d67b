"""Hamiltonians, bases, and matrix elements."""

import numpy as np
import pytest

import rotpolariton as rp
from conftest import (
    B,
    G,
    W01,
    adiabatic_dressed_vectors,
    build_full_hamiltonian,
    build_product_basis,
    cos_matrix_quadrature,
    dressed_cos_reference,
    dressed_transform,
    embed_dressed_vectors,
    ocs_params,
    project_to_dressed,
    unit_params,
)


def _hermiticity_defect(op):
    return float(np.max(np.abs(op - op.conj().T)))


# ------------------------------------------------------------- parameters

def test_params_derived_quantities():
    p = unit_params()
    assert p.omega01 == pytest.approx(2.0 * B)
    assert p.revival_time == pytest.approx(np.pi / B)
    # permanent dipole 1 -> transition element <0|cos|1> mu = 1/sqrt(3)
    assert p.mu01 == pytest.approx(1.0 / np.sqrt(3.0))


def test_params_validation():
    with pytest.raises(ValueError):
        rp.SystemParams(rot_const=-1.0, dipole=1.0, coupling=0.2, j_max=8, n_max=4)
    with pytest.raises(ValueError, match="coupling"):
        unit_params(coupling=-0.2)
    with pytest.raises(ValueError):
        unit_params(j_max=0)
    # coupled cavity with no photon ladder cannot be dressed
    with pytest.raises(ValueError):
        rp.build_model(unit_params(n_max=0))


def test_unit_conversions():
    assert 0.20286 * rp.HARTREE_PER_CM1 == pytest.approx(0.20286 * 4.556335252767e-6,
                                                         rel=1e-6)
    assert rp.AU_PER_DEBYE == pytest.approx(0.3934303, rel=1e-5)
    # the config scales each quantity by its unit's factor, atomic units by 1
    from rotpolariton.cli import resolve_config

    system = resolve_config({"system": {"rot_const": {"value": 0.20286, "unit": "cm-1"},
                                        "dipole": {"value": 0.715, "unit": "au-dipole"}}})
    assert system["system"]["rot_const_au"] == 0.20286 * rp.HARTREE_PER_CM1
    assert system["system"]["dipole_au"] == 0.715
    # only an energy unit measures the rotational constant
    with pytest.raises(rp.ConfigError, match="unit"):
        resolve_config({"system": {"rot_const": {"value": 1.0, "unit": "debye"}}})


def test_ocs_defaults():
    p = ocs_params()
    assert p.coupling == pytest.approx(0.1 * p.omega01)
    assert p.j_max == 8 and p.n_max == 4
    bare = ocs_params(cavity=False)
    assert bare.coupling == 0.0 and bare.n_max == 0


# -------------------------------------------------------------- product basis

def test_product_basis_indexing():
    pb = build_product_basis(3, 2)
    assert pb.dim == 12
    # photon-major ordering: index = n * (j_max + 1) + j
    assert pb.index(0, 0) == 0
    assert pb.index(3, 0) == 3
    assert pb.index(0, 1) == 4
    assert pb.states[5] == (1, 1)
    with pytest.raises(ValueError):
        pb.index(4, 0)


def test_cos_theta_elements_match_quadrature_oracle():
    for j_max in (1, 4, 8, 10):
        got = rp.cos_theta_elements(j_max)
        want = cos_matrix_quadrature(j_max)
        assert np.max(np.abs(got - want)) < 1e-12


def test_cos_theta_known_values():
    m = rp.cos_theta_elements(4)
    assert m[0, 1] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)
    assert m[1, 2] == pytest.approx(2.0 / np.sqrt(15.0), abs=1e-14)
    assert np.all(np.diag(m) == 0.0)        # parity: no diagonal elements
    assert m[0, 2] == 0.0                   # selection rule |dJ| = 1
    assert np.max(np.abs(m - m.T)) == 0.0


# --------------------------------------------------------- full Hamiltonian

def test_full_hamiltonian_structure():
    p = unit_params(j_max=4, n_max=2)
    h0, v = build_full_hamiltonian(p)
    pb = build_product_basis(4, 2)
    assert h0.shape == v.shape == (pb.dim, pb.dim)
    assert _hermiticity_defect(h0) < 1e-15
    assert _hermiticity_defect(v) < 1e-15
    d = np.diag(h0).real
    # drift diagonal: B j(j+1) + omega_c n
    assert d[pb.index(0, 0)] == pytest.approx(0.0)
    assert d[pb.index(1, 0)] == pytest.approx(2.0 * B)
    assert d[pb.index(0, 1)] == pytest.approx(W01)
    assert d[pb.index(2, 1)] == pytest.approx(6.0 * B + W01)
    # coupling block: -(g / mu01) * mu cos theta * (a + adag)
    i, k = pb.index(1, 0), pb.index(0, 1)
    assert h0[i, k] == pytest.approx(-G, abs=1e-14)
    i2, k2 = pb.index(1, 1), pb.index(0, 2)
    assert h0[i2, k2] == pytest.approx(-G * np.sqrt(2.0), abs=1e-13)
    # drive operator acts on the molecule only
    assert v[pb.index(0, 0), pb.index(1, 0)] == pytest.approx(p.mu01)
    assert v[pb.index(0, 0), pb.index(1, 1)] == 0.0


def test_bare_hamiltonian_has_no_coupling():
    p = unit_params(coupling=0.0, n_max=0)
    h0, v = build_full_hamiltonian(p)
    assert np.max(np.abs(h0 - np.diag(np.diag(h0)))) == 0.0


# ------------------------------------------------------------------ models

def test_bare_model_is_the_rotor_alone():
    p = unit_params(coupling=0.0, n_max=0, j_max=6)
    model = rp.build_model(p)
    j = np.arange(7, dtype=float)
    assert model.labels == tuple(f"J{k},n0" for k in range(7))
    assert np.array_equal(model.energies, B * j * (j + 1.0))
    assert np.array_equal(model.cos, rp.cos_theta_elements(6))
    # the model's arrays are real and read-only
    for a in (model.energies, model.cos):
        assert a.dtype == float and not a.flags.writeable


@pytest.mark.parametrize("n_max", range(1, 32))
def test_closed_form_cos_equals_the_transform_reference(n_max):
    p = unit_params(n_max=n_max)
    assert np.array_equal(rp.build_model(p).cos, dressed_cos_reference(p))


@pytest.mark.parametrize("p", [unit_params(), ocs_params(), ocs_params(coupling_ratio=0.3)])
def test_effective_dipoles_are_the_model_couplings(p):
    # the pulse areas and the propagated drive share their couplings
    model = rp.build_model(p)
    m = p.dipole * model.cos
    ground = m[model.labels.index("0;0"), model.labels.index("+;0")]
    doublet = m[model.labels.index("+;0"), model.labels.index("+;1")]
    assert rp.mu_tilde_ground(p) == pytest.approx(ground, rel=1e-15, abs=0.0)
    assert rp.mu_tilde_doublet(p) == pytest.approx(doublet, rel=1e-15, abs=0.0)


def test_dressed_energies_closed_form():
    p = unit_params()
    bas = rp.build_model(p)
    assert bas.labels[0] == "0;0"
    assert bas.labels[-1] == "edge"
    for n in range(p.n_max):
        up = bas.energies[bas.labels.index(f"+;{n}")]
        lo = bas.energies[bas.labels.index(f"-;{n}")]
        assert up == pytest.approx(W01 * (n + 1) + G * np.sqrt(n + 1), abs=1e-12)
        assert lo == pytest.approx(W01 * (n + 1) - G * np.sqrt(n + 1), abs=1e-12)
    # uncoupled top rung: |J=1> with the photon ladder full
    assert bas.energies[bas.labels.index("edge")] == pytest.approx(W01 + p.n_max * W01)
    assert len(bas.labels) == 2 * (p.n_max + 1)


def test_dressed_transform_unitary():
    u = dressed_transform(unit_params())
    assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-12


def test_doublet_energies_and_effective_dipoles():
    p = unit_params()
    w_up, w_lo = rp.doublet_energies(p, 0)
    assert w_up == pytest.approx(W01 + G)
    assert w_lo == pytest.approx(W01 - G)
    w1_up, w1_lo = rp.doublet_energies(p, 1)
    assert w1_up == pytest.approx(2.0 * W01 + np.sqrt(2.0) * G)
    assert w1_lo == pytest.approx(2.0 * W01 - np.sqrt(2.0) * G)
    assert rp.mu_tilde_ground(p) == pytest.approx(p.mu01 / np.sqrt(2.0))
    assert rp.mu_tilde_doublet(p) == pytest.approx(p.mu01 / 2.0)


def test_dressed_cos_matrix_elements():
    p = unit_params()
    bas = rp.build_model(p)
    m = bas.cos
    i0 = bas.labels.index("0;0")
    # ground-to-doublet elements split the bare 1/sqrt(3) evenly, with the
    # lower member picking up the dressing sign
    assert m[i0, bas.labels.index("+;0")] == pytest.approx(+1.0 / np.sqrt(6.0), abs=1e-12)
    assert m[i0, bas.labels.index("-;0")] == pytest.approx(-1.0 / np.sqrt(6.0), abs=1e-12)
    assert abs(m[bas.labels.index("+;0"), bas.labels.index("-;0")]) < 1e-14
    # doublet-to-doublet: sign follows the destination branch
    for s in "+-":
        assert m[bas.labels.index(f"{s};0"), bas.labels.index("+;1")] == pytest.approx(
            +1.0 / (2.0 * np.sqrt(3.0)), abs=1e-12)
        assert m[bas.labels.index(f"{s};0"), bas.labels.index("-;1")] == pytest.approx(
            -1.0 / (2.0 * np.sqrt(3.0)), abs=1e-12)
    assert _hermiticity_defect(bas.cos) < 1e-14


# ------------------------------------------------ frame bridging helpers

def test_project_to_dressed_ground_and_rotor_states():
    p = unit_params()
    pb = build_product_basis(p.j_max, p.n_max)
    bas = rp.build_model(p)
    amps = np.zeros(pb.dim, dtype=complex)
    amps[pb.index(0, 0)] = 1.0
    c = project_to_dressed(amps, p)
    assert abs(c[bas.labels.index("0;0")]) == pytest.approx(1.0, abs=1e-12)
    # bare |J=1, n=0> splits evenly over the ground doublet
    amps = np.zeros(pb.dim, dtype=complex)
    amps[pb.index(1, 0)] = 1.0
    c = project_to_dressed(amps, p)
    assert abs(c[bas.labels.index("+;0")]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert abs(c[bas.labels.index("-;0")]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)


def test_embedded_dressed_vectors_are_orthonormal():
    p = unit_params()
    emb = embed_dressed_vectors(p)
    gram = emb.conj().T @ emb
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_adiabatic_vectors_are_exact_eigenvectors():
    p = unit_params()
    h0, _v = build_full_hamiltonian(p)
    vecs, evals, bas = adiabatic_dressed_vectors(p)
    resid = h0 @ vecs - vecs * evals[None, :]
    assert np.max(np.abs(resid)) < 1e-12
    # counter-rotating terms repel the ground state downward by ~g^2/omega01
    assert evals[bas.labels.index("0;0")] < 0.0
    assert evals[bas.labels.index("0;0")] == pytest.approx(-G ** 2 / (2.0 * W01), rel=0.3)
    # they stay close to their resonant counterparts at g = 0.1 omega01
    emb = embed_dressed_vectors(p)
    ov = np.abs(np.sum(emb.conj() * vecs, axis=0))
    assert np.min(ov) > 0.95
