"""Giant-spin Hamiltonians, semiclassical landscapes, and transition maps.

The package is organized by capability:

- :mod:`spinscape.spin` builds spin matrices, fourth-rank axial and
  tetragonal/trigonal operator equivalents, and full Hamiltonians in
  kelvin units.
- :mod:`spinscape.eig` wraps dense Hermitian diagonalization with the
  validation, determinism, and error policy the rest of the package
  relies on.
- :mod:`spinscape.landscape` evaluates the coherent-state energy
  surface on the sphere, its reduction to a five-parameter polar
  Fourier series, and the stationary structure of that series.
- :mod:`spinscape.separatrix` locates bifurcation and degeneracy
  (Maxwell) sets in one- and two-parameter scans.
- :mod:`spinscape.observables` computes ground-state fidelity and
  thermodynamic quantities from exact spectra.
- :mod:`spinscape.compounds` carries a catalog of published molecular
  nanomagnet parameter sets and a plain-text exchange format for them.
- :mod:`spinscape.writers` and :mod:`spinscape.cli` provide
  deterministic table output and the command-line front end.
"""

from .compounds import Compound, catalog, dump_compound, load_compound, lookup
from .eig import ConvergenceError, Spectrum, eigh
from .landscape import (
    CriticalPoint,
    LandscapeReport,
    ReducedParams,
    coherent_expectation,
    critical_points,
    landscape,
    landscapes,
    parameter_scale,
    potential_angular,
    potential_reduced,
    reduce_params,
)
from .observables import (
    FidelityMap,
    ThermoPoint,
    fidelity,
    fidelity_map,
    heat_capacity_scan,
    heatcap_map,
    thermo,
)
from .separatrix import (
    PlaneSpec,
    SeparatrixSet,
    SweepResult,
    classify_cell_edges,
    sweep_crossings,
)
from .spin import (
    G_FACTOR,
    MU_B_OVER_KB,
    AnisotropyParams,
    FieldVector,
    SpinMatrices,
    SpinSystem,
    build_hamiltonian,
    spin_matrices,
    stevens_o4,
)

__version__ = "0.1.0"

__all__ = [
    "AnisotropyParams",
    "Compound",
    "ConvergenceError",
    "CriticalPoint",
    "FidelityMap",
    "FieldVector",
    "G_FACTOR",
    "LandscapeReport",
    "MU_B_OVER_KB",
    "PlaneSpec",
    "ReducedParams",
    "SeparatrixSet",
    "SpinMatrices",
    "SpinSystem",
    "Spectrum",
    "SweepResult",
    "ThermoPoint",
    "build_hamiltonian",
    "catalog",
    "classify_cell_edges",
    "coherent_expectation",
    "critical_points",
    "dump_compound",
    "eigh",
    "fidelity",
    "fidelity_map",
    "heat_capacity_scan",
    "heatcap_map",
    "landscape",
    "landscapes",
    "load_compound",
    "lookup",
    "parameter_scale",
    "potential_angular",
    "potential_reduced",
    "reduce_params",
    "spin_matrices",
    "stevens_o4",
    "sweep_crossings",
    "thermo",
    "__version__",
]
