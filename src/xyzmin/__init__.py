"""Entanglement and measurement-induced nonlocality for two-qubit
Heisenberg XYZ thermal states."""

from .decomp import FanoForm, fano_decompose, reconstruct
from .errors import (
    ConventionMismatch,
    DomainError,
    NotDiagonalCorrelation,
    OracleInconsistent,
    StateInvalid,
)
from .measures import (
    CriticalWindow,
    ThermalMeasures,
    concurrence,
    critical_window,
    min_fidelity,
    min_hs,
    min_trace,
    thermal_measures,
)
from .model import (
    DensityMatrix,
    ModelParams,
    SpectralDecomposition,
    ThermalElements,
    build_hamiltonian,
    closed_form_spectrum,
    thermal_elements,
    thermal_elements_batch,
    thermal_state,
)
from .oracle import (
    MeasurementAxis,
    OracleResult,
    fidelity_wang,
    max_over_measurements,
    post_measurement_state,
    thermal_state_exp,
)

__version__ = "0.1.0"
