"""Boson-sampling simulator and analysis toolkit for linear-optical networks.

Computes permanent-based multi-photon output distributions, models
partial-distinguishability interference (HOM dips), compiles
coupler/phase circuits to unitaries, and reconstructs circuit parameters
from single- and two-photon measurement data.

Importing the package loads neither numpy nor any submodule: each public
name is imported from its module on first access (PEP 562), so the CLI
can cap BLAS threads before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "circuit": ("Coupler", "OpticalCircuit", "PhaseShifter", "compile_circuit",
                "default_topology", "element_unitary", "random_circuit"),
    "errors": ("CapacityError", "DegeneratePostselectionError", "NonConvergenceError",
               "SizeLimitError", "UndefinedVisibilityError"),
    "fock": ("OutputDistribution", "basis_size", "build_submatrix",
             "collision_free_distribution", "enumerate_basis", "full_distribution",
             "sample", "transition_probability"),
    "interference": ("DEFAULT_SIGMA_FS", "DelayConfig", "coincidence_rate", "hom_scan",
                     "overlap_from_delays", "transform_limited_sigma_fs", "visibility"),
    "permanent": ("permanent_naive", "permanent_ryser"),
    "reconstruction": ("CircuitParameters", "FitConfig", "MeasurementDataset",
                       "ReconstructionResult", "RestartRecord", "VisibilityRecord",
                       "default_visibility_pairs", "fit", "objective", "predict_observables",
                       "simulate_dataset", "simulate_dataset_from_unitary"),
    "unitary": ("is_unitary", "random_unitary"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
