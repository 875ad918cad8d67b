"""Rotational-polariton simulator and pulse-design toolkit.

A single polar linear molecule exchanges one quantum with a resonant cavity
mode.  A run has one of two models, which build_model picks: the rotor alone
(no coupling), or the polariton (dressed) basis of the coupled system.  The package propagates
arbitrary linearly polarized drive fields in either, extracts orientation
traces, spectra, and revival periods, and designs the two-color pulse that
restores the bare orientation maximum 1/sqrt(3) inside the cavity.
"""

__version__ = "0.1.0"

from .control import (
    DESIGN_AREA,
    KICK_AREA,
    ConditionReport,
    ScanResult,
    check_conditions,
    compute_areas,
    design_composite,
    kick_response,
    magnus_final_state,
    phase_functional,
    scan_composite_bandwidth,
    scan_detuning_bandwidth,
)
from .dynamics import (
    StateVector,
    Trajectory,
    magnus_wavefunction,
    propagate,
    propagate_batch,
    unit_state,
)
from .errors import (
    BasisMismatch,
    ConfigError,
    DesignInfeasible,
    NoRevivalFound,
    NotConverged,
    RotPolaritonError,
    UnknownUnit,
)
from .model import (
    OperatorMatrix,
    SystemParams,
    build_model,
    convert_units,
    cos_theta_elements,
    doublet_energies,
    mu_tilde_doublet,
    mu_tilde_ground,
)
from .observables import (
    Spectrum,
    TimeSeries,
    dressed_populations_phases,
    orientation_max_oracle,
    orientation_trace,
    revival_period,
    spectrum,
    spectrum_peaks,
)
from .pulse import (
    CompositePulse,
    PulseAreaSet,
    aggregate_areas,
    carrier_ceiling,
    composite_for_area,
    field_to_dict,
    field_value,
    gaussian_for_area,
    pulse_area_doublet,
    pulse_area_ground,
    spectral_area,
)
