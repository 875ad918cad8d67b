"""Field specs and spectral pulse areas."""

import numpy as np
import pytest

import rotpolariton as rp
from conftest import G, area_by_quadrature, unit_params


def test_area_constants():
    assert rp.KICK_AREA == pytest.approx(np.pi / 4.0)
    assert rp.DESIGN_AREA == pytest.approx(np.pi * np.sqrt(2.0) / 8.0)


def test_gaussian_field_value():
    fld = rp.CompositePulse(e0=0.5, tau0=2.0, components=((3.0, 0.7),),
                            t_start=-14.0, t_end=14.0)
    assert rp.field_value(fld, 0.0) == pytest.approx(0.5 * np.cos(0.7))
    t = 1.3
    want = 0.5 * np.exp(-t ** 2 / 8.0) * np.cos(3.0 * t + 0.7)
    assert rp.field_value(fld, t) == pytest.approx(want, abs=1e-15)
    assert rp.carrier_ceiling(fld) == pytest.approx(3.0)


def test_window_validation():
    with pytest.raises(ValueError):
        rp.CompositePulse(e0=1.0, tau0=-1.0, components=((1.0, 0.0),),
                          t_start=-7.0, t_end=7.0)
    # the factories pad to 7 widths; anything below 6 is rejected
    with pytest.raises(ValueError):
        rp.CompositePulse(e0=1.0, tau0=2.0, components=((1.0, 0.0),),
                          t_start=-4.0, t_end=4.0)
    with pytest.raises(ValueError):
        rp.CompositePulse(e0=1.0, tau0=2.0, components=(), t_start=-14.0, t_end=14.0)


def test_composite_field_is_carrier_sum():
    fld = rp.CompositePulse(e0=0.4, tau0=3.0, components=((2.2, 0.1), (1.8, -0.3)),
                            t_start=-21.0, t_end=21.0)
    t = 0.9
    env = 0.4 * np.exp(-t ** 2 / 18.0)
    want = env * (np.cos(2.2 * t + 0.1) + np.cos(1.8 * t - 0.3))
    assert rp.field_value(fld, t) == pytest.approx(want, abs=1e-15)
    assert rp.carrier_ceiling(fld) == pytest.approx(2.2)


def test_gaussian_for_area_hits_requested_area():
    p = unit_params(coupling=0.0, n_max=0)
    for area in (rp.KICK_AREA, 0.3, 1.1):
        fld = rp.gaussian_for_area(p, area, tau0=20.0, omega0=p.omega01)
        assert fld.components == ((p.omega01, 0.0),)
        th = rp.spectral_area(fld, p.omega01, dipole=p.mu01)
        assert abs(th) == pytest.approx(area, abs=1e-9)
        assert fld.e0 == pytest.approx(np.sqrt(2.0 / np.pi) * area / (p.mu01 * 20.0))


def test_spectral_area_matches_quadrature_oracle():
    fld = rp.CompositePulse(e0=0.3, tau0=8.0, components=((2.2, 0.7),),
                            t_start=-56.0, t_end=56.0)
    for w in (0.0, 1.1, 1.8, 2.2, 2.9):
        got = rp.spectral_area(fld, w, dipole=0.6)
        want = area_by_quadrature(fld, w, dipole=0.6)
        assert abs(got - want) < 1e-8


def test_spectral_area_detuning_rolloff():
    # relative magnitude follows exp(-tau0^2 delta^2 / 2) once tau0 w0 >> 1
    fld = rp.CompositePulse(e0=0.2, tau0=12.0, components=((2.0, 0.0),),
                            t_start=-84.0, t_end=84.0)
    on = abs(rp.spectral_area(fld, 2.0))
    for delta in (0.05, 0.1, 0.2):
        off = abs(rp.spectral_area(fld, 2.0 + delta))
        assert off / on == pytest.approx(np.exp(-12.0 ** 2 * delta ** 2 / 2.0), rel=1e-2)


def test_ground_doublet_areas_against_oracle():
    p = unit_params()
    w0 = rp.doublet_energies(p, 0)
    mu0 = rp.mu_tilde_ground(p)
    fld = rp.composite_for_area(p, rp.DESIGN_AREA, 1.0 / (0.1 * G),
                                [(w0[0], 0.35), (w0[1], -0.6)])
    up, lo = rp.pulse_area_ground(fld, w0, mu0)
    # the lower transition dipole carries the dressing sign
    assert abs(up - area_by_quadrature(fld, w0[0], mu0)) < 1e-8
    assert abs(lo + area_by_quadrature(fld, w0[1], mu0)) < 1e-8
    # narrowband carriers on their own lines: each area lands on target and
    # keeps its own carrier phase
    assert abs(up) == pytest.approx(rp.DESIGN_AREA, abs=1e-9)
    assert abs(lo) == pytest.approx(rp.DESIGN_AREA, abs=1e-9)
    assert np.angle(up) == pytest.approx(0.35, abs=1e-9)


def test_doublet_leakage_areas_against_oracle():
    p = unit_params()
    w0 = rp.doublet_energies(p, 0)
    w1 = rp.doublet_energies(p, 1)
    mu1 = rp.mu_tilde_doublet(p)
    fld = rp.composite_for_area(p, rp.DESIGN_AREA, 1.0 / (0.1 * G),
                                [(w0[0], 0.0), (w0[1], 0.0)])
    dbl = rp.pulse_area_doublet(fld, w0, w1, mu1)
    assert set(dbl) == {(s, l) for s in (1, -1) for l in (1, -1)}
    freq = {(+1, +1): w1[0] - w0[0], (+1, -1): w1[1] - w0[0],
            (-1, +1): w1[0] - w0[1], (-1, -1): w1[1] - w0[1]}
    for key, th in dbl.items():
        want = key[1] * area_by_quadrature(fld, freq[key], mu1)
        assert abs(th - want) < 1e-8
    # narrowband: all leakage areas tiny compared to the drive area
    assert max(abs(v) for v in dbl.values()) < 0.02 * rp.DESIGN_AREA


def test_broadband_composite_leaks_into_upper_doublet():
    p = unit_params()
    w0 = rp.doublet_energies(p, 0)
    fld = rp.composite_for_area(p, rp.DESIGN_AREA, 1.0 / G,
                                [(w0[0], 0.0), (w0[1], 0.0)])
    dbl = rp.pulse_area_doublet(fld, w0, rp.doublet_energies(p, 1),
                                rp.mu_tilde_doublet(p))
    assert max(abs(v) for v in dbl.values()) > 0.1 * rp.DESIGN_AREA


def test_aggregate_areas_combined_angles():
    p = unit_params()
    w0 = rp.doublet_energies(p, 0)
    fld = rp.composite_for_area(p, rp.DESIGN_AREA, 1.0 / (0.1 * G),
                                [(w0[0], 0.0), (w0[1], 0.0)])
    areas = rp.compute_areas(p, fld)
    # equal areas on both lines: theta0 = sqrt(2) A = pi/4
    assert areas.theta0 == pytest.approx(np.sqrt(2.0) * rp.DESIGN_AREA, abs=1e-9)
    assert areas.theta0 == pytest.approx(np.pi / 4.0, abs=1e-9)
    assert areas.theta1 < 1e-6
    assert areas.theta == pytest.approx(np.hypot(areas.theta0, areas.theta1))

