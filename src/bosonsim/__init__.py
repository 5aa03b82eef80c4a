"""Boson-sampling simulator and analysis toolkit for linear-optical networks.

Computes permanent-based multi-photon output distributions, models
partial-distinguishability interference (HOM dips), compiles
coupler/phase circuits to unitaries, and reconstructs circuit parameters
from single- and two-photon measurement data.
"""

from .circuit import (
    Coupler,
    OpticalCircuit,
    PhaseShifter,
    compile_circuit,
    default_topology,
    element_unitary,
    random_circuit,
)
from .errors import (
    CapacityError,
    DegeneratePostselectionError,
    NonConvergenceError,
    SizeLimitError,
    UndefinedVisibilityError,
)
from .fock import (
    OutputDistribution,
    basis_size,
    build_submatrix,
    collision_free_distribution,
    enumerate_basis,
    full_distribution,
    sample,
    transition_probability,
)
from .interference import (
    DEFAULT_SIGMA_FS,
    DelayConfig,
    coincidence_rate,
    hom_scan,
    overlap_from_delays,
    transform_limited_sigma_fs,
    visibility,
)
from .permanent import permanent_naive, permanent_ryser
from .reconstruction import (
    CircuitParameters,
    FitConfig,
    MeasurementDataset,
    ReconstructionResult,
    RestartRecord,
    VisibilityRecord,
    default_visibility_pairs,
    fit,
    objective,
    predict_observables,
    simulate_dataset,
    simulate_dataset_from_unitary,
)
from .unitary import is_unitary, random_unitary

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CircuitParameters",
    "Coupler",
    "DEFAULT_SIGMA_FS",
    "DegeneratePostselectionError",
    "DelayConfig",
    "FitConfig",
    "MeasurementDataset",
    "NonConvergenceError",
    "OpticalCircuit",
    "OutputDistribution",
    "PhaseShifter",
    "ReconstructionResult",
    "RestartRecord",
    "SizeLimitError",
    "UndefinedVisibilityError",
    "VisibilityRecord",
    "basis_size",
    "build_submatrix",
    "coincidence_rate",
    "collision_free_distribution",
    "compile_circuit",
    "default_topology",
    "default_visibility_pairs",
    "element_unitary",
    "enumerate_basis",
    "fit",
    "full_distribution",
    "hom_scan",
    "is_unitary",
    "objective",
    "overlap_from_delays",
    "permanent_naive",
    "permanent_ryser",
    "predict_observables",
    "random_circuit",
    "random_unitary",
    "sample",
    "simulate_dataset",
    "simulate_dataset_from_unitary",
    "transform_limited_sigma_fs",
    "transition_probability",
    "visibility",
]
