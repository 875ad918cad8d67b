"""Rotational-polariton simulator and pulse-design toolkit.

A single polar linear molecule exchanges one quantum with a resonant cavity
mode; the package builds the coupled Hamiltonians, propagates arbitrary
linearly polarized drive fields, extracts orientation traces, spectra, and
revival periods, and designs the two-color pulse that restores the bare
orientation maximum 1/sqrt(3) inside the cavity.
"""

__version__ = "0.1.0"

from .control import (
    DESIGN_AREA,
    KICK_AREA,
    ConditionReport,
    ScanResult,
    check_conditions,
    composite_response,
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
    expand_to_labels,
    free_evolve,
    magnus_wavefunction,
    propagate,
    propagate_batch,
    to_interaction,
    to_schrodinger,
    unit_state,
)
from .errors import (
    BasisMismatch,
    ConfigError,
    DesignInfeasible,
    NoRevivalFound,
    NonResonantCavity,
    NotConverged,
    QuadratureNotConverged,
    RotPolaritonError,
    UnknownUnit,
    WindowTooShort,
)
from .model import (
    DressedBasis,
    OperatorMatrix,
    ProductBasis,
    SystemParams,
    adiabatic_dressed_vectors,
    build_dressed_basis,
    build_dressed_hamiltonian,
    build_full_hamiltonian,
    build_product_basis,
    convert_units,
    cos_theta_elements,
    doublet_energies,
    dressed_cos_matrix,
    embed_dressed_vectors,
    mu_tilde_doublet,
    mu_tilde_ground,
    ocs_params,
    project_to_dressed,
)
from .observables import (
    Spectrum,
    TimeSeries,
    dressed_populations_phases,
    expectation_series,
    orientation,
    orientation_max_oracle,
    orientation_trace,
    revival_period,
    spectrum,
    spectrum_peaks,
)
from .pulse import (
    CompositePulse,
    GaussianPulse,
    PulseAreaSet,
    SampledField,
    aggregate_areas,
    carrier_ceiling,
    composite_for_area,
    envelope_scale,
    field_from_dict,
    field_to_dict,
    field_value,
    gaussian_for_area,
    pulse_area_doublet,
    pulse_area_ground,
    spectral_area,
)
